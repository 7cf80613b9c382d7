//! Fault-injection properties for the crash-safe reference monitor.
//!
//! Two families of properties, per the crash-safety design:
//!
//! * **Recovery equivalence** — replaying a journal onto the seed graph
//!   reproduces the live monitor exactly: graph, level assignment, rule
//!   log and statistics. Torn tails reduce to a prefix of that history.
//! * **Fail-closed** — no injected corruption (journal bit flips,
//!   garbage, torn writes) or out-of-band graph tampering lets a
//!   hierarchy-violating `r`/`w` edge survive an audit cycle: recovery
//!   either reproduces a clean monitor or refuses to produce one at all.

use proptest::prelude::*;
use tg_hierarchy::journal::{recover, JournalError};
use tg_hierarchy::structure::linear_hierarchy;
use tg_hierarchy::{CombinedRestriction, Monitor};
use tg_rules::Rule;
use tg_sim::faults::{adversarial_trace, corrupt_bytes, tamper_graph, CorruptionKind};
use tg_sim::prng::Prng;

/// A fresh monitor over a 3-level, 3-per-level linear hierarchy, with
/// journaling enabled, plus an untouched copy of the seed for recovery.
fn journaled_monitor() -> (Monitor, impl Fn() -> Monitor) {
    let built = linear_hierarchy(&["low", "mid", "high"], 3);
    let seed_graph = built.graph.clone();
    let seed_levels = built.assignment.clone();
    let mut monitor = Monitor::new(built.graph, built.assignment, Box::new(CombinedRestriction));
    monitor.enable_journal();
    let make_seed = move || {
        Monitor::new(
            seed_graph.clone(),
            seed_levels.clone(),
            Box::new(CombinedRestriction),
        )
    };
    (monitor, make_seed)
}

/// Drives `monitor` with an adversarial trace, mixing single rule
/// applications with transactional batches so the journal exercises
/// `R`, `B`/`A`/`C` and `B`/`A`/`X` records.
fn drive(monitor: &mut Monitor, trace: &[Rule], seed: u64) {
    let mut rng = Prng::seed_from_u64(seed ^ 0x5EED);
    let mut i = 0;
    while i < trace.len() {
        if rng.gen_bool(0.3) {
            let width = 2 + rng.below(3);
            let batch = &trace[i..(i + width).min(trace.len())];
            let _ = monitor.try_apply_all(batch);
            i += batch.len();
        } else {
            let _ = monitor.try_apply(&trace[i]);
            i += 1;
        }
    }
}

fn assert_equivalent(live: &Monitor, recovered: &Monitor) {
    assert_eq!(recovered.graph(), live.graph(), "graphs diverge");
    assert_eq!(recovered.levels(), live.levels(), "levels diverge");
    assert_eq!(recovered.stats(), live.stats(), "stats diverge");
    assert_eq!(
        recovered.journal().unwrap().as_str(),
        live.journal().unwrap().as_str(),
        "journals diverge"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Recovery equivalence: seed + journal == live monitor, exactly.
    #[test]
    fn recovery_reproduces_the_live_monitor(seed in 0u64..10_000, len in 1usize..60) {
        let (mut live, make_seed) = journaled_monitor();
        let trace = adversarial_trace(live.graph(), live.levels(), len, seed);
        drive(&mut live, &trace, seed);

        let fresh = make_seed();
        let (graph, levels) = fresh.into_parts();
        let (recovered, report) = recover(
            graph,
            levels,
            Box::new(CombinedRestriction),
            live.journal().unwrap().as_bytes(),
        )
        .expect("an undamaged journal recovers");
        prop_assert!(report.torn.is_none());
        assert_equivalent(&live, &recovered);
        // The recovered journal is a clean re-encoding of the same
        // history, so recovery is idempotent.
        prop_assert_eq!(
            recovered.journal().unwrap().as_str(),
            live.journal().unwrap().as_str()
        );
    }

    /// A torn tail (pure truncation — the crash-mid-write shape) always
    /// recovers to a prefix of the live history, never to garbage.
    #[test]
    fn torn_journals_recover_a_prefix(seed in 0u64..10_000, len in 1usize..40) {
        let (mut live, make_seed) = journaled_monitor();
        let trace = adversarial_trace(live.graph(), live.levels(), len, seed);
        drive(&mut live, &trace, seed);

        let mut rng = Prng::seed_from_u64(seed.wrapping_mul(31));
        let (torn, _) =
            corrupt_bytes(live.journal().unwrap().as_bytes(), CorruptionKind::TornTail, &mut rng);

        let fresh = make_seed();
        let (graph, levels) = fresh.into_parts();
        match recover(graph, levels, Box::new(CombinedRestriction), &torn) {
            Ok((recovered, report)) => {
                let live_stats = live.stats();
                let rec = recovered.stats();
                prop_assert!(rec.permitted <= live_stats.permitted);
                prop_assert!(rec.denied <= live_stats.denied);
                prop_assert!(rec.malformed <= live_stats.malformed);
                // The surviving history is a prefix of the live one.
                prop_assert!(live
                    .journal()
                    .unwrap()
                    .as_str()
                    .starts_with(recovered.journal().unwrap().as_str()));
                // Fail-closed: whatever prefix survived, the restriction
                // held throughout, so the audit is clean.
                prop_assert!(recovered.audit().is_empty());
                if report.replayed as u64 == live.journal().unwrap().records() {
                    assert_equivalent(&live, &recovered);
                }
            }
            // Tearing everything including the magic line fails closed.
            Err(JournalError::BadMagic) => {}
            Err(e) => return Err(format!("torn tail must not fail as {e}")),
        }
    }

    /// Arbitrary journal corruption — bit flips and garbage spans — never
    /// yields a recovered monitor whose graph violates the hierarchy:
    /// recovery re-verifies every record, so it either reproduces a clean
    /// prefix or fails closed with a `JournalError`.
    #[test]
    fn corrupted_journals_fail_closed(
        seed in 0u64..10_000,
        len in 1usize..40,
        flips in 1usize..4,
        garbage in proptest::bool::ANY,
    ) {
        let (mut live, make_seed) = journaled_monitor();
        let trace = adversarial_trace(live.graph(), live.levels(), len, seed);
        drive(&mut live, &trace, seed);

        let mut rng = Prng::seed_from_u64(seed.rotate_left(17) | 1);
        let mut bytes = live.journal().unwrap().as_bytes().to_vec();
        for _ in 0..flips {
            let kind = if garbage { CorruptionKind::Garbage } else { CorruptionKind::BitFlip };
            let (damaged, _) = corrupt_bytes(&bytes, kind, &mut rng);
            bytes = damaged;
        }

        let fresh = make_seed();
        let (graph, levels) = fresh.into_parts();
        if let Ok((recovered, _)) = recover(graph, levels, Box::new(CombinedRestriction), &bytes) {
            // Whatever the damage did, it could not smuggle a violating
            // edge past the re-verifying replay.
            prop_assert!(recovered.audit().is_empty());
            let live_stats = live.stats();
            prop_assert!(recovered.stats().permitted <= live_stats.permitted);
        }
    }

    /// Out-of-band tampering: every violating planted edge is caught by
    /// the audit cycle, the monitor fails closed while degraded, and no
    /// violating edge survives quarantine.
    #[test]
    fn tampering_never_survives_an_audit_cycle(seed in 0u64..10_000, count in 1usize..20) {
        // Tamper behind the monitor's back: plant edges straight into the
        // graph before handing it to the monitor.
        let mut built = linear_hierarchy(&["low", "mid", "high"], 3);
        let mut rng = Prng::seed_from_u64(seed ^ 0xBAD);
        let planted = tamper_graph(&mut built.graph, &built.assignment, count, &mut rng);
        let mut monitor =
            Monitor::new(built.graph, built.assignment, Box::new(CombinedRestriction));
        monitor.enable_journal();

        let violating: Vec<_> = planted.iter().filter(|t| t.violating).collect();
        let violations = monitor.audit_cycle();
        // Completeness: every violating tamper is reported (Cor 5.6).
        for t in &violating {
            prop_assert!(
                violations.iter().any(|v| v.src == t.src && v.dst == t.dst),
                "planted violation {:?} not audited", t
            );
        }
        if violating.is_empty() {
            // Nothing violating planted: service continues undegraded.
            prop_assert!(!monitor.is_degraded());
            return Ok(());
        }

        // Fail closed: de jure traffic is refused while degraded.
        prop_assert!(monitor.is_degraded());
        let trace = adversarial_trace(monitor.graph(), monitor.levels(), 10, seed);
        let before = monitor.graph().clone();
        for rule in trace.iter().filter(|r| matches!(r, Rule::DeJure(_))) {
            prop_assert!(monitor.try_apply(rule).is_err());
        }
        prop_assert_eq!(monitor.graph(), &before);

        // Quarantine repairs: afterwards no violating r/w edge survives.
        monitor.quarantine();
        prop_assert!(!monitor.is_degraded());
        prop_assert!(monitor.audit().is_empty());
        prop_assert!(monitor.stats().quarantined >= 1);
        prop_assert_eq!(monitor.stats().recoveries, 1);
    }
}
