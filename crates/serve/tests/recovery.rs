//! Crash-during-group-commit: cut the chain file or kill the store at
//! any byte and show recovery lands on a prefix of the arrival order
//! that holds every request the gateway answered.

use tg_graph::{render_graph, ProtectionGraph, Rights};
use tg_hierarchy::{CombinedRestriction, LevelAssignment, Monitor, MonitorStats};
use tg_log::{CommitLog, DirStore, LogConfig, MemStore, CHAIN_FILE};
use tg_par::Pool;
use tg_rules::{DeJureRule, Rule};
use tg_serve::{Gateway, Request, Verdict};
use tg_sim::faults::CrashPlan;

/// `s1 -t-> s2`; `s2` holds a right over each of four documents, so
/// four independent takes admit cleanly.
fn system() -> (ProtectionGraph, LevelAssignment) {
    let mut g = ProtectionGraph::new();
    let s1 = g.add_subject("s1");
    let s2 = g.add_subject("s2");
    g.add_edge(s1, s2, Rights::T).unwrap();
    let mut ids = vec![s1, s2];
    for i in 0..4 {
        let doc = g.add_object(format!("doc{i}"));
        g.add_edge(s2, doc, Rights::R).unwrap();
        ids.push(doc);
    }
    let mut levels = LevelAssignment::linear(&["only"]);
    for v in ids {
        levels.assign(v, 0).unwrap();
    }
    (g, levels)
}

fn take(g: &ProtectionGraph, target: &str) -> Box<Rule> {
    let v = |n: &str| g.find_by_name(n).expect("vertex");
    Box::new(Rule::DeJure(DeJureRule::Take {
        actor: v("s1"),
        via: v("s2"),
        target: v(target),
        rights: Rights::R,
    }))
}

#[test]
fn recovery_lands_on_the_last_fully_admitted_batch() {
    let dir = std::env::temp_dir().join(format!("tg-serve-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let (g, levels) = system();
    let genesis = tg_log::seed_digest(&g, &levels);
    let log_config = LogConfig {
        snapshot_interval: 0, // recovery must come from the chain alone
        write_through: true,
    };
    let store = DirStore::open(&dir).unwrap();
    let (log, monitor) = CommitLog::create(
        Box::new(store),
        g.clone(),
        levels,
        Box::new(CombinedRestriction),
        log_config,
    )
    .unwrap();

    let pool = Pool::sequential();
    let mut gateway: Gateway<u32> = Gateway::new(monitor, Some(log), 2);

    // Batch 1 admits and persists; remember its durable length and the
    // graph it left behind.
    for (i, doc) in ["doc0", "doc1"].iter().enumerate() {
        for (_, verdict) in gateway.submit_mutation(i as u32, take(&g, doc)) {
            assert!(matches!(verdict, tg_serve::Verdict::Ok(_)));
        }
    }
    let _ = pool; // gateway flushes on the window boundary; no waves here
    let chain_path = dir.join(CHAIN_FILE);
    let after_batch_1 = std::fs::metadata(&chain_path).unwrap().len();
    let (graph_after_batch_1, epoch_after_batch_1) = {
        // Render via a replay so the reference is what durability holds,
        // not what memory holds.
        let store = DirStore::open(&dir).unwrap();
        let (_, m, report) = CommitLog::open(
            Box::new(store),
            Box::new(CombinedRestriction),
            log_config,
            Some(genesis),
        )
        .unwrap();
        (render_graph(m.graph()), report.end_epoch)
    };

    // Batch 2 admits and persists too…
    for (i, doc) in ["doc2", "doc3"].iter().enumerate() {
        for (_, verdict) in gateway.submit_mutation(2 + i as u32, take(&g, doc)) {
            assert!(matches!(verdict, tg_serve::Verdict::Ok(_)));
        }
    }
    let after_batch_2 = std::fs::metadata(&chain_path).unwrap().len();
    assert!(after_batch_2 > after_batch_1);
    drop(gateway);

    // …but the daemon "crashes" mid-write: the chain file ends ten
    // bytes into batch 2's first record — mid-line, far from any record
    // boundary, with no commit marker in sight.
    let torn_len = after_batch_1 + 10;
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&chain_path)
        .unwrap();
    file.set_len(torn_len).unwrap();
    drop(file);

    // Recovery discards the torn tail and lands exactly on batch 1.
    let store = DirStore::open(&dir).unwrap();
    let (_, recovered, report) = CommitLog::open(
        Box::new(store),
        Box::new(CombinedRestriction),
        log_config,
        Some(genesis),
    )
    .unwrap();
    assert!(report.torn.is_some(), "the tear must be detected");
    assert_eq!(render_graph(recovered.graph()), graph_after_batch_1);
    assert_eq!(
        report.end_epoch, epoch_after_batch_1,
        "recovery must land on the last fully-admitted batch"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The other crash shape: the file ends cleanly on a record boundary,
/// inside a group whose persist never completed. A group commit writes
/// one self-contained record per rule, with no batch markers, so a cut
/// between records is not an open batch to discard: recovery keeps the
/// whole records before the cut (`doc2`) and loses the one after it
/// (`doc3`) — a prefix of the arrival order. No client saw either
/// verdict, since the gateway answers a group only after its persist.
#[test]
fn recovery_discards_a_trailing_uncommitted_batch() {
    let dir = std::env::temp_dir().join(format!("tg-serve-openbatch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let (g, levels) = system();
    let genesis = tg_log::seed_digest(&g, &levels);
    let log_config = LogConfig {
        snapshot_interval: 0,
        write_through: true,
    };
    let store = DirStore::open(&dir).unwrap();
    let (log, monitor) = CommitLog::create(
        Box::new(store),
        g.clone(),
        levels,
        Box::new(CombinedRestriction),
        log_config,
    )
    .unwrap();
    let mut gateway: Gateway<u32> = Gateway::new(monitor, Some(log), 2);
    for (i, doc) in ["doc0", "doc1"].iter().enumerate() {
        let _ = gateway.submit_mutation(i as u32, take(&g, doc));
    }
    let chain_path = dir.join(CHAIN_FILE);
    let after_batch_1 = std::fs::metadata(&chain_path).unwrap().len();
    for (i, doc) in ["doc2", "doc3"].iter().enumerate() {
        let _ = gateway.submit_mutation(2 + i as u32, take(&g, doc));
    }
    drop(gateway);

    // Cut the file back to batch 1 plus batch 2's first whole record:
    // the last newline before the final record.
    let bytes = std::fs::read(&chain_path).unwrap();
    let cut = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap() as u64
        + 1;
    assert!(cut > after_batch_1, "cut must leave part of batch 2");
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&chain_path)
        .unwrap();
    file.set_len(cut).unwrap();
    drop(file);

    let store = DirStore::open(&dir).unwrap();
    let (_, recovered, report) = CommitLog::open(
        Box::new(store),
        Box::new(CombinedRestriction),
        log_config,
        Some(genesis),
    )
    .unwrap();
    // No torn line and no open batch — every kept record is intact and
    // self-contained — so recovery replays exactly the records before
    // the cut: batch 1, then doc2, but not doc3.
    assert!(report.torn.is_none());
    assert!(!report.discarded_open_batch);
    assert_eq!(report.end_epoch, 3);
    let graph = recovered.graph();
    let s1 = graph.find_by_name("s1").unwrap();
    for doc in ["doc0", "doc1", "doc2"] {
        let doc = graph.find_by_name(doc).unwrap();
        assert!(graph.has_any(s1, doc, tg_graph::Right::Read));
    }
    let doc3 = graph.find_by_name("doc3").unwrap();
    assert!(
        !graph.has_any(s1, doc3, tg_graph::Right::Read),
        "a record past the cut must not survive recovery"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A take of `right` over `target` by `actor` via `via`.
fn take_by(g: &ProtectionGraph, actor: &str, via: &str, target: &str, right: Rights) -> Rule {
    let v = |n: &str| g.find_by_name(n).expect("vertex");
    Rule::DeJure(DeJureRule::Take {
        actor: v(actor),
        via: v(via),
        target: v(target),
        rights: right,
    })
}

/// The crash matrix for group commit: the same run of several groups —
/// admissions, denials and malformed rules mixed — is killed at every
/// byte `k` of what it writes. Whatever survives must recover to the
/// sequential application of a prefix of the arrival order, and that
/// prefix must hold every request whose verdict the gateway released:
/// no `ok` (and no `refused`) before the group's fdatasync.
#[test]
fn group_commit_survives_a_kill_at_every_byte() {
    // The usual system at `high`, plus a `low` document `s2` writes:
    // taking that `w` is a write-down the combined restriction denies.
    let (mut g, _) = system();
    let mut levels = LevelAssignment::linear(&["low", "high"]);
    for v in g.vertex_ids() {
        levels.assign(v, 1).unwrap();
    }
    let s2 = g.find_by_name("s2").unwrap();
    let low = g.add_object("low");
    g.add_edge(s2, low, Rights::W).unwrap();
    levels.assign(low, 0).unwrap();

    let rules: Vec<Rule> = (0..14)
        .map(|i| match i % 5 {
            3 => take_by(&g, "s1", "s2", "low", Rights::W), // denied
            4 => take_by(&g, "s2", "s1", "doc0", Rights::R), // malformed
            _ => take_by(&g, "s1", "s2", &format!("doc{}", i % 4), Rights::R),
        })
        .collect();
    // Drains of 5, 4 and 5 requests under a window of 3: groups of 3+2,
    // 3+1 and 3+2, cutting the snapshot interval of 4 at varied phases.
    let drains = [0..5, 5..9, 9..14];
    let config = LogConfig {
        snapshot_interval: 4,
        write_through: false,
    };

    // The reference: the state after each prefix of the arrival order.
    let mut sequential = Monitor::new(g.clone(), levels.clone(), Box::new(CombinedRestriction));
    let mut prefixes: Vec<(String, MonitorStats)> =
        vec![(render_graph(sequential.graph()), sequential.stats())];
    for rule in &rules {
        let _ = sequential.try_apply(rule);
        prefixes.push((render_graph(sequential.graph()), sequential.stats()));
    }
    assert!(sequential.stats().denied > 0 && sequential.stats().malformed > 0);

    let run = |store: &MemStore| -> Vec<(usize, Verdict)> {
        let mut released = Vec::new();
        let Ok((log, monitor)) = CommitLog::create(
            Box::new(store.clone()),
            g.clone(),
            levels.clone(),
            Box::new(CombinedRestriction),
            config,
        ) else {
            return released; // killed before the log existed
        };
        let pool = Pool::sequential();
        let mut gateway: Gateway<usize> = Gateway::new(monitor, Some(log), 3);
        for drain in drains.clone() {
            let requests = drain.map(|i| (i, Request::Apply(Box::new(rules[i].clone()))));
            let _ = gateway.drain(requests, &pool, |i, v| released.push((i, v)));
        }
        released
    };

    // Size the sweep from a crash-free run: every byte written, plus one
    // unit per atomic rename, plus slack past the end.
    let clean = MemStore::new();
    let released = run(&clean);
    assert_eq!(released.len(), rules.len());
    assert!(released
        .iter()
        .all(|(_, v)| !matches!(v, Verdict::Error(_))));
    let total = clean.bytes_stored() + 64;

    let genesis = tg_log::seed_digest(&g, &levels);
    let mut recovered_lengths = std::collections::BTreeSet::new();
    for k in 0..total as u64 {
        let store = MemStore::with_plan(CrashPlan::kill_after_bytes(k));
        let released = run(&store);
        // Every released `ok`/`refused` must be durable.
        let durable_needed = released
            .iter()
            .filter(|(_, v)| !matches!(v, Verdict::Error(_)))
            .map(|(i, _)| i + 1)
            .max()
            .unwrap_or(0);
        store.set_plan(CrashPlan::never());
        let opened = CommitLog::open(
            Box::new(store.clone()),
            Box::new(CombinedRestriction),
            config,
            Some(genesis),
        );
        let (graph, stats) = match opened {
            Ok((_, monitor, _)) => (render_graph(monitor.graph()), monitor.stats()),
            // Killed before `create` made the log: nothing was admitted.
            Err(e) => {
                assert_eq!(durable_needed, 0, "kill at {k}: {e}");
                continue;
            }
        };
        // Every attempt moves a counter, so each prefix state is unique.
        let prefix = prefixes
            .iter()
            .position(|p| p.0 == graph && p.1 == stats)
            .unwrap_or_else(|| panic!("kill at {k}: recovered state is no prefix"));
        assert!(
            prefix >= durable_needed,
            "kill at {k}: released {durable_needed} verdicts, recovered {prefix}"
        );
        recovered_lengths.insert(prefix);
    }
    // The sweep really lands inside every group, not just at its ends.
    assert!(
        recovered_lengths.len() > drains.len() * 2,
        "{recovered_lengths:?}"
    );
}
