//! Cross-crate integration: build a classified installation through the
//! public facade, attack it, monitor it, audit it.

use take_grant::analysis::{can_know, can_share, synthesis};
use take_grant::graph::{Right, Rights};
use take_grant::hierarchy::declass::private_copy_attack;
use take_grant::hierarchy::monitor::audit_graph;
use take_grant::hierarchy::objects::{object_level, ObjectLevel};
use take_grant::hierarchy::structure::lattice_hierarchy;
use take_grant::hierarchy::{
    rw_levels, secure_policy, secure_structural, CombinedRestriction, Monitor,
};
use take_grant::rules::{DeJureRule, Derivation, Rule};
use take_grant::sim::gen::random_trace;

#[test]
fn a_full_installation_lifecycle() {
    // 1. Build a diamond lattice with two subjects per level.
    let mut built = lattice_hierarchy(
        &["public", "engineering", "finance", "board"],
        &[(1, 0), (2, 0), (3, 1), (3, 2)],
        2,
    )
    .unwrap();
    assert!(secure_policy(&built.graph, &built.assignment).is_ok());

    // 2. Attach documents and check their derived classification.
    let ledger = built.attach_object(2, "ledger");
    let roadmap = built.attach_object(1, "roadmap");
    let derived = rw_levels(&built.graph);
    let finance_level = derived
        .level_of(built.subjects[2][0])
        .expect("subjects are classified");
    assert_eq!(
        object_level(&built.graph, &derived, ledger),
        ObjectLevel::Level(finance_level)
    );

    // 3. The static analysis confirms compartment separation.
    let engineer = built.subjects[1][0];
    let accountant = built.subjects[2][0];
    let director = built.subjects[3][0];
    assert!(!can_know(&built.graph, engineer, ledger));
    assert!(!can_know(&built.graph, accountant, roadmap));
    assert!(can_know(&built.graph, director, ledger));
    assert!(can_know(&built.graph, director, roadmap));

    // 4. Plant an attack surface and watch the analysis light up.
    let mut attacked = built.graph.clone();
    let registry = attacked.add_object("registry");
    attacked.add_edge(registry, ledger, Rights::R).unwrap();
    attacked.add_edge(engineer, registry, Rights::T).unwrap();
    assert!(can_share(&attacked, Right::Read, engineer, ledger));
    let witness = synthesis::share_witness(&attacked, Right::Read, engineer, ledger).unwrap();
    let broken = witness.replayed(&attacked).unwrap();
    assert!(broken.has_explicit(engineer, ledger, Right::Read));

    // 5. The same surface behind the monitor is harmless.
    let mut levels = built.assignment.clone();
    levels.assign(registry, 2).unwrap();
    let mut monitor = Monitor::new(attacked, levels, Box::new(CombinedRestriction));
    let steal = Rule::DeJure(DeJureRule::Take {
        actor: engineer,
        via: registry,
        target: ledger,
        rights: Rights::R,
    });
    assert!(monitor.try_apply(&steal).is_err());
    for rule in random_trace(monitor.graph(), 500, 99) {
        let _ = monitor.try_apply(&rule);
    }
    assert!(monitor.audit().is_empty());

    // 6. Structural and definitional checks agree on the clean build.
    assert!(secure_structural(&built.graph, &built.assignment).is_ok());

    // 7. And the §6 private-copy attack still works *within* clearance:
    // the director copies the ledger it legitimately reads.
    let mut g = built.graph.clone();
    g.add_edge(director, ledger, Rights::R).unwrap();
    let (copy_attack, _) = private_copy_attack(&g, director, ledger).unwrap();
    let after = copy_attack.replayed(&g).unwrap();
    let copy = after.find_by_name("private-copy").unwrap();
    assert!(take_grant::analysis::can_know_f(&after, copy, ledger));
}

#[test]
fn audit_is_equivalent_to_incremental_checking() {
    // Corollaries 5.6/5.7 consistency: a graph reached exclusively through
    // the monitor audits clean; the same rule stream applied raw audits
    // exactly the permitted-minus-denied difference.
    let built = take_grant::sim::gen::HierarchyGen {
        levels: 3,
        per_level: 3,
        noise_edges: 0,
        seed: 5,
    }
    .build();
    let trace = random_trace(&built.graph, 800, 17);
    let mut monitor = Monitor::new(
        built.graph.clone(),
        built.assignment.clone(),
        Box::new(CombinedRestriction),
    );
    let mut accepted = Derivation::new();
    for rule in &trace {
        if monitor.try_apply(rule).is_ok() {
            accepted.push(rule.clone());
        }
    }
    assert!(monitor.audit().is_empty());
    // Replaying the rules the monitor accepted raw reproduces its graph.
    let replayed = accepted.replayed(&built.graph).unwrap();
    assert_eq!(&replayed, monitor.graph());
    assert!(audit_graph(&replayed, monitor.levels(), &CombinedRestriction).is_empty());
}
