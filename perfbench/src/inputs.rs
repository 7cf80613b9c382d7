//! Seeded, deterministic workload inputs.
//!
//! Every input comes from the workload seed: the `tg-gen` scenario (the
//! seed picks the campaign's level boundary), the `serve_write` rule
//! stream and the query pairs the traced run replays. The program under test only
//! ever sees the generated text. [`self_test`] checks that one seed gives
//! byte-identical inputs and that another seed changes them.

use std::collections::HashSet;

use tg_gen::{CampaignKind, Family, GenConfig, Scenario};
use tg_graph::{ProtectionGraph, Right, Rights, VertexId, VertexKind};
use tg_hierarchy::{CombinedRestriction, Monitor, MonitorError};
use tg_rules::{DeJureRule, Rule};
use tg_serve::Opcode;
use tg_sim::prng::Prng;

/// Subjects (approximately) in the daemon's military lattice.
pub const SERVE_SCALE: usize = 8000;
/// Subjects (approximately) in the linted military lattice.
pub const LINT_SCALE: usize = 200;

/// Stream-specific seed salts, so the scenario, the query pairs and the
/// rule stream draw from independent generators.
const READ_SALT: u64 = 0x5245_4144_5041_4952;
const WRITE_SALT: u64 = 0x5752_4954_4552_554c;

/// The daemon's scenario: a military lattice with a conspiracy campaign.
pub fn serve_scenario(seed: u64) -> Scenario {
    tg_gen::generate(
        &GenConfig::new(Family::Military, SERVE_SCALE, seed)
            .with_campaign(CampaignKind::Conspiracy),
    )
}

/// The linter's scenario: a military lattice with a trojan campaign.
pub fn lint_scenario(seed: u64) -> Scenario {
    tg_gen::generate(
        &GenConfig::new(Family::Military, LINT_SCALE, seed).with_campaign(CampaignKind::Trojan),
    )
}

/// One cross-level query of the traced replay, with the vertex ids its
/// oracle needs.
#[derive(Clone, Debug)]
pub struct ReadRequest {
    pub opcode: Opcode,
    pub payload: String,
    /// `Some(right)` for `can-share`, `None` for `can-know`.
    pub right: Option<Right>,
    pub x: VertexId,
    pub y: VertexId,
}

/// `count` cross-level queries over distinct `(x, y)` subject pairs:
/// three in four `can-know`, one in four `can-share` of `r` or `w`.
pub fn read_requests(scenario: &Scenario, seed: u64, count: usize) -> Vec<ReadRequest> {
    let mut rng = Prng::seed_from_u64(seed ^ READ_SALT);
    let levels: Vec<&Vec<VertexId>> = scenario.subjects.iter().filter(|s| !s.is_empty()).collect();
    let graph = &scenario.graph;
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let a = rng.below(levels.len());
        let b = rng.below(levels.len());
        if a == b {
            continue;
        }
        let x = *rng.choose(levels[a]);
        let y = *rng.choose(levels[b]);
        if !seen.insert((x, y)) {
            continue;
        }
        let (xn, yn) = (&graph.vertex(x).name, &graph.vertex(y).name);
        let request = if rng.below(4) == 0 {
            let right = if rng.below(2) == 0 {
                Right::Read
            } else {
                Right::Write
            };
            ReadRequest {
                opcode: Opcode::CanShare,
                payload: format!("{} {xn} {yn}", right_letter(right)),
                right: Some(right),
                x,
                y,
            }
        } else {
            ReadRequest {
                opcode: Opcode::CanKnow,
                payload: format!("{xn} {yn}"),
                right: None,
                x,
                y,
            }
        };
        out.push(request);
    }
    out
}

fn right_letter(right: Right) -> &'static str {
    match right {
        Right::Read => "r",
        Right::Write => "w",
        _ => unreachable!("queries only ask about r and w"),
    }
}

/// How the monitor decides a rule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    Permitted,
    /// Refused by the restriction (Theorem 5.5 / Corollary 5.7).
    Denied,
    /// Refused because the rule's own preconditions fail.
    Malformed,
}

/// One `serve_write` request and the verdict a sequential monitor gives.
#[derive(Clone, Debug)]
pub struct WriteRequest {
    pub rule: Rule,
    /// The `apply` payload: the rule in the `tg-rules` line codec.
    pub line: String,
    pub outcome: Outcome,
    /// The response the daemon must send: `Ok` with `applied`, or
    /// `Refused` with the monitor's reason.
    pub expect_opcode: Opcode,
    pub expect_payload: String,
}

/// The rule generator's view of who can act on whom.
struct WriteState {
    /// Subjects that create, grant, take and remove.
    actors: Vec<VertexId>,
    /// `(x, y)` with an explicit `t` from subject `x` to `y`.
    takes: Vec<(VertexId, VertexId)>,
    /// `(x, y)` with an explicit `g` from subject `x` to `y`.
    grants: Vec<(VertexId, VertexId)>,
    /// The subset of `takes` that crosses a level boundary.
    cross: Vec<(VertexId, VertexId)>,
    /// `(x, z)` edges a rule gave subject `x`: what removes target.
    acquired: Vec<(VertexId, VertexId)>,
    created: usize,
}

/// The `serve_write` rule stream: the campaign trace, then `count`
/// seeded rules — creates, removes of held rights, take/grant over the
/// campaign's `t`/`g` scaffolding and the pawns actors create, a share of
/// cross-level takes through the conspirators' `t` edge (mostly refused
/// as read-ups), and a small share of malformed takes. Each rule's
/// verdict comes from a sequential offline monitor fed the same stream.
pub fn write_requests(scenario: &Scenario, seed: u64, count: usize) -> Vec<WriteRequest> {
    let mut rng = Prng::seed_from_u64(seed ^ WRITE_SALT);
    let mut monitor = Monitor::new(
        scenario.graph.clone(),
        scenario.levels.clone(),
        Box::new(CombinedRestriction),
    );
    let mut state = initial_state(scenario, &mut rng);
    let mut out = Vec::with_capacity(count + 4);
    let campaign = scenario
        .campaign
        .as_ref()
        .expect("the serve scenario has a campaign");
    for rule in &campaign.trace.steps {
        out.push(admit(&mut monitor, &mut state, rule.clone()));
    }
    while out.len() < count + campaign.trace.steps.len() {
        if let Some(rule) = propose(&monitor, &mut state, &mut rng) {
            out.push(admit(&mut monitor, &mut state, rule));
        }
    }
    out
}

fn initial_state(scenario: &Scenario, rng: &mut Prng) -> WriteState {
    let graph = &scenario.graph;
    let mut takes = Vec::new();
    let mut grants = Vec::new();
    for x in graph.subjects() {
        for (y, rights) in graph.out_edges(x) {
            if rights.explicit().contains(Right::Take) {
                takes.push((x, y));
            }
            if rights.explicit().contains(Right::Grant) {
                grants.push((x, y));
            }
        }
    }
    let levels = &scenario.levels;
    let cross: Vec<(VertexId, VertexId)> = takes
        .iter()
        .copied()
        .filter(|&(x, y)| levels.level_of(x) != levels.level_of(y))
        .collect();
    // The acting population: every endpoint of the scaffolding plus a
    // seeded sample of ordinary subjects from across the lattice.
    let mut actors: Vec<VertexId> = takes
        .iter()
        .chain(&grants)
        .flat_map(|&(x, y)| [x, y])
        .filter(|&v| graph.is_subject(v))
        .collect();
    let all: Vec<VertexId> = scenario.subjects.iter().flatten().copied().collect();
    for _ in 0..64 {
        actors.push(*rng.choose(&all));
    }
    actors.sort();
    actors.dedup();
    WriteState {
        actors,
        takes,
        grants,
        cross,
        acquired: Vec::new(),
        created: 0,
    }
}

/// A random non-empty subset of `rights` restricted to `r`, `w`, `t`,
/// `g`: usually a single right, sometimes all of them.
fn pick_rights(rights: Rights, rng: &mut Prng) -> Option<Rights> {
    let usable = rights.intersection(Rights::RW.union(Rights::TG));
    let each: Vec<Right> = usable.iter().collect();
    if each.is_empty() {
        return None;
    }
    if rng.below(4) == 0 {
        Some(usable)
    } else {
        Some(Rights::singleton(*rng.choose(&each)))
    }
}

/// A random explicit out-edge of `v` other than to `skip`.
fn pick_edge(
    graph: &ProtectionGraph,
    v: VertexId,
    skip: VertexId,
    rng: &mut Prng,
) -> Option<(VertexId, Rights)> {
    let edges: Vec<(VertexId, Rights)> = graph
        .out_edges(v)
        .map(|(z, r)| (z, r.explicit()))
        .filter(|&(z, r)| z != skip && !r.is_empty())
        .collect();
    if edges.is_empty() {
        None
    } else {
        Some(*rng.choose(&edges))
    }
}

/// Proposes one rule of a seeded kind, or `None` when the drawn kind has
/// no material yet (the caller draws again).
fn propose(monitor: &Monitor, state: &mut WriteState, rng: &mut Prng) -> Option<Rule> {
    let graph = monitor.graph();
    let roll = rng.below(100);
    let rule = if roll < 10 {
        let actor = *rng.choose(&state.actors);
        state.created += 1;
        let (kind, rights) = if rng.below(2) == 0 {
            (VertexKind::Subject, Rights::TG)
        } else {
            (VertexKind::Object, Rights::RW)
        };
        DeJureRule::Create {
            actor,
            kind,
            rights,
            name: format!("pb{}", state.created),
        }
    } else if roll < 38 {
        let (x, y) = *rng.choose(&state.grants);
        let (z, rights) = pick_edge(graph, x, y, rng)?;
        DeJureRule::Grant {
            actor: x,
            via: y,
            target: z,
            rights: pick_rights(rights, rng)?,
        }
    } else if roll < 62 {
        let (x, y) = *rng.choose(&state.takes);
        let (z, rights) = pick_edge(graph, y, x, rng)?;
        DeJureRule::Take {
            actor: x,
            via: y,
            target: z,
            rights: pick_rights(rights, rng)?,
        }
    } else if roll < 80 {
        if state.acquired.is_empty() {
            return None;
        }
        let (x, z) = *rng.choose(&state.acquired);
        let held = graph.rights(x, z).explicit().intersection(Rights::RW);
        DeJureRule::Remove {
            actor: x,
            target: z,
            rights: pick_rights(held, rng)?,
        }
    } else if roll < 98 {
        let (x, y) = *rng.choose(&state.cross);
        let (z, rights) = pick_edge(graph, y, x, rng)?;
        DeJureRule::Take {
            actor: x,
            via: y,
            target: z,
            rights: pick_rights(rights, rng)?,
        }
    } else {
        // Malformed: a take through a vertex the actor holds no `t` on.
        let actor = *rng.choose(&state.actors);
        let via = VertexId::from_index(rng.below(graph.vertex_count()));
        if graph.rights(actor, via).explicit().contains(Right::Take) {
            return None;
        }
        DeJureRule::Take {
            actor,
            via,
            target: actor,
            rights: Rights::R,
        }
    };
    let rule = Rule::DeJure(rule);
    // Only the malformed kind may fail its preconditions: anything else
    // that does is redrawn, so refusals are decisions, not noise.
    let malformed = matches!(monitor.check(&rule), Err(MonitorError::Rule(_)));
    (malformed == (roll >= 98)).then_some(rule)
}

/// Applies `rule` to the offline monitor, records its verdict, and
/// updates the generator's scaffolding from the rule's effect.
fn admit(monitor: &mut Monitor, state: &mut WriteState, rule: Rule) -> WriteRequest {
    let result = monitor.try_apply(&rule);
    let (outcome, expect_opcode, expect_payload) = match &result {
        Ok(_) => (Outcome::Permitted, Opcode::Ok, "applied".to_string()),
        Err(e @ MonitorError::Rule(_)) => (Outcome::Malformed, Opcode::Refused, e.to_string()),
        Err(e) => (Outcome::Denied, Opcode::Refused, e.to_string()),
    };
    if outcome == Outcome::Permitted {
        let graph = monitor.graph();
        let levels = monitor.levels();
        let gained = match &rule {
            Rule::DeJure(DeJureRule::Create { actor, rights, .. }) => {
                let new = VertexId::from_index(graph.vertex_count() - 1);
                Some((*actor, new, *rights))
            }
            Rule::DeJure(DeJureRule::Grant {
                via,
                target,
                rights,
                ..
            }) => Some((*via, *target, *rights)),
            Rule::DeJure(DeJureRule::Take {
                actor,
                target,
                rights,
                ..
            }) => Some((*actor, *target, *rights)),
            _ => None,
        };
        if let Some((x, z, rights)) = gained {
            if graph.is_subject(x) && x != z {
                if rights.intersects(Rights::RW) {
                    state.acquired.push((x, z));
                }
                if rights.contains(Right::Take) {
                    state.takes.push((x, z));
                    if levels.level_of(x) != levels.level_of(z) {
                        state.cross.push((x, z));
                    }
                }
                if rights.contains(Right::Grant) {
                    state.grants.push((x, z));
                }
            }
        }
    }
    WriteRequest {
        line: tg_rules::codec::encode_rule(&rule),
        rule,
        outcome,
        expect_opcode,
        expect_payload,
    }
}

/// Permitted, denied and malformed counts of a stream prefix.
pub fn outcome_counts(requests: &[WriteRequest]) -> (u64, u64, u64) {
    let mut counts = (0, 0, 0);
    for r in requests {
        match r.outcome {
            Outcome::Permitted => counts.0 += 1,
            Outcome::Denied => counts.1 += 1,
            Outcome::Malformed => counts.2 += 1,
        }
    }
    counts
}

/// A digest of every byte a workload feeds the program.
fn digest(workload: &str, seed: u64) -> u64 {
    // Short streams suffice: the generators are the same code at any
    // length, and a long stream would only slow every run down.
    const STREAM: usize = 2048;
    let mut text = String::new();
    let scenario = if workload == "lint_policy" {
        lint_scenario(seed)
    } else {
        serve_scenario(seed)
    };
    text.push_str(&scenario.graph_text());
    text.push_str(&scenario.policy_text());
    if workload == "serve_write" {
        for r in write_requests(&scenario, seed, STREAM) {
            text.push_str(&r.line);
            text.push_str(&r.expect_payload);
            text.push('\n');
        }
        // The traced run replays the query stream on the same scenario.
        for r in read_requests(&scenario, seed, STREAM) {
            text.push_str(&r.payload);
            text.push('\n');
        }
    }
    tg_log::fnv1a(text.as_bytes())
}

/// The determinism self-test: the same seed must give byte-identical
/// inputs, and other seeds must change them. (A scenario alone may
/// repeat across two seeds when both pick the same campaign boundary, so
/// three neighbouring seeds are tried.) Returns the first failure.
pub fn self_test(workload: &str, seed: u64) -> Result<(), String> {
    let first = digest(workload, seed);
    if digest(workload, seed) != first {
        return Err(format!("{workload}: seed {seed} gave two different inputs"));
    }
    if (1..=3).all(|d| digest(workload, seed.wrapping_add(d)) == first) {
        return Err(format!(
            "{workload}: seeds {seed}..={} gave identical inputs",
            seed.wrapping_add(3)
        ));
    }
    Ok(())
}
