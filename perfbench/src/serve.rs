//! The daemon workload, `serve_write`: pipelined rule bursts, checked
//! against offline oracles after the timed phase.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tg_graph::{parse_graph, render_graph, ProtectionGraph};
use tg_hierarchy::policy::parse_policy;
use tg_hierarchy::{CombinedRestriction, LevelAssignment, Monitor};
use tg_serve::Opcode;

use crate::daemon::{self, Daemon, Report};
use crate::inputs::{self, WriteRequest};

/// Throwaway daemon starts before and again after the timed window,
/// besides the measured one: `setup_s` is a median of seventeen spread
/// over the run, so a slow spell of the host moves it less.
const EXTRA_SETUPS: usize = 8;
/// Traffic before the timed window: lets the daemon's pool and the
/// page cache settle. Its answers are still checked.
pub const WARMUP: Duration = Duration::from_millis(500);
/// Requests per pipelined burst on `serve_write` (what `tgq client
/// --script` sends before it reads answers).
pub const BURST: usize = 32;
/// Rules generated for a `serve_write` run (a run that exhausts them ends
/// early and is measured over the shorter window).
const WRITE_POOL: usize = 96_000;

/// Where a run keeps its files, and the daemon binary.
pub struct Setup<'a> {
    pub tgq: &'a Path,
    pub work: &'a Path,
    pub seed: u64,
}

/// The measured outcome of one daemon workload run.
#[derive(Default)]
pub struct Live {
    /// Latency of every request sent inside the timed window, in µs.
    pub latencies_us: Vec<f64>,
    /// Seconds from the end of warm-up to the last timed answer.
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub peak_rss_mib: f64,
    pub report: Report,
    /// Oracle failures that are not one request's (final state,
    /// counters), and the first few request mismatches.
    pub problems: Vec<String>,
    /// Seeded input facts for the result record.
    pub facts: Vec<(&'static str, String)>,
}

impl Live {
    fn new(scene: &Scene) -> Live {
        let graph = &scene.graph;
        Live {
            facts: vec![
                ("scale", inputs::SERVE_SCALE.to_string()),
                ("vertices", graph.vertex_count().to_string()),
                ("edges", graph.edge_count().to_string()),
            ],
            ..Live::default()
        }
    }

    fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// The daemon's scenario: generated from the seed, written as the `.tg`
/// and `.pol` files the daemon loads, and parsed back from that text.
pub struct Scene {
    pub scenario: tg_gen::Scenario,
    pub graph_path: PathBuf,
    pub policy_path: PathBuf,
    pub graph: ProtectionGraph,
    pub levels: LevelAssignment,
}

/// Builds the [`Scene`] for `seed` in `work`.
pub fn scene(work: &Path, seed: u64) -> Result<Scene, String> {
    let scenario = inputs::serve_scenario(seed);
    let graph_path = work.join("scenario.tg");
    let policy_path = work.join("scenario.pol");
    let graph_text = scenario.graph_text();
    let policy_text = scenario.policy_text();
    std::fs::write(&graph_path, &graph_text).map_err(|e| e.to_string())?;
    std::fs::write(&policy_path, &policy_text).map_err(|e| e.to_string())?;
    let graph = parse_graph(&graph_text).map_err(|e| e.to_string())?;
    let levels = parse_policy(&policy_text, &graph).map_err(|e| e.to_string())?;
    Ok(Scene {
        scenario,
        graph_path,
        policy_path,
        graph,
        levels,
    })
}

/// Starts the measured daemon after the first throwaway set-up samples.
fn boot(
    setup: &Setup<'_>,
    live: &mut Live,
    scene: &Scene,
    dump: Option<&Path>,
) -> Result<(Daemon, PathBuf), String> {
    let (graph, policy) = (&scene.graph_path, &scene.policy_path);
    live.setup_s = daemon::setup_samples(setup.tgq, graph, policy, setup.work, EXTRA_SETUPS)?;
    let log = setup.work.join("log");
    let daemon = Daemon::start(setup.tgq, graph, policy, &log, dump)?;
    live.setup_s.push(daemon.setup_s);
    Ok((daemon, log))
}

/// Stops the measured daemon, then takes the remaining set-up samples.
fn stop(setup: &Setup<'_>, live: &mut Live, daemon: Daemon, scene: &Scene) -> Result<(), String> {
    live.peak_rss_mib = daemon.peak_rss_mib()?;
    live.report = daemon.shutdown()?;
    live.setup_s.extend(daemon::setup_samples(
        setup.tgq,
        &scene.graph_path,
        &scene.policy_path,
        setup.work,
        EXTRA_SETUPS,
    )?);
    Ok(())
}

/// One answered request: which request, its latency, whether it falls in
/// the timed window, and the response (or the transport error).
type Answer = (
    usize,
    f64,
    Option<Instant>,
    Result<(Opcode, String), String>,
);

/// Fills the timed latencies, window and attempt count from `answers`.
fn tally_window(live: &mut Live, answers: &[Answer], warm_end: Instant) {
    live.attempted = answers.len() as u64;
    let mut last = warm_end;
    for (_, latency, timed, _) in answers {
        if let Some(done) = timed {
            live.latencies_us.push(*latency);
            last = last.max(*done);
        }
    }
    live.window_s = (last - warm_end).as_secs_f64();
}

/// Drives pipelined bursts of `BURST` `apply` requests (as `tgq client
/// --script` sends them) through one session until `end`,
/// returning every answer with its latency from the burst's send time.
pub fn drive_bursts(
    daemon: &Daemon,
    requests: &[WriteRequest],
    warm_end: Instant,
    end: Instant,
) -> Result<Vec<Answer>, String> {
    let mut client = daemon.connect()?;
    let mut answers = Vec::new();
    let mut next = 0;
    while next < requests.len() {
        let sent = Instant::now();
        if sent >= end {
            break;
        }
        let burst = &requests[next..(next + BURST).min(requests.len())];
        for r in burst {
            client.send(Opcode::Apply, &r.line)?;
        }
        for (k, _) in burst.iter().enumerate() {
            let response = client.recv().map(|f| (f.opcode, f.payload_text()));
            let done = Instant::now();
            let timed = (sent >= warm_end).then_some(done);
            let failed = response.is_err();
            answers.push((next + k, (done - sent).as_secs_f64() * 1e6, timed, response));
            if failed {
                return Ok(answers);
            }
        }
        next += burst.len();
    }
    Ok(answers)
}

/// Checks each answer against the sequential monitor's verdict.
fn check_verdicts(live: &mut Live, requests: &[WriteRequest], answers: &[Answer]) {
    for (i, _, _, response) in answers {
        let r = &requests[*i];
        match response {
            Ok((opcode, payload)) if *opcode == r.expect_opcode && *payload == r.expect_payload => {
            }
            Ok((opcode, payload)) => live.mismatch(format!(
                "apply {}: got {opcode:?} {payload:?}, expected {:?} {:?}",
                r.line, r.expect_opcode, r.expect_payload
            )),
            Err(e) => live.mismatch(format!("apply {}: {e}", r.line)),
        }
    }
}

/// `serve_write`: one session pipelines bursts of 32 seeded rules for
/// `seconds` after warm-up. Oracles: every verdict equals a sequential
/// offline monitor's; the daemon's final state, an offline
/// `CommitLog::open` recovery of its log and the offline monitor's state
/// are byte-identical; the daemon's permitted count equals the stream's.
pub fn run_write(setup: &Setup<'_>, seconds: f64) -> Result<Live, String> {
    let scene = scene(setup.work, setup.seed)?;
    let mut live = Live::new(&scene);
    let requests = inputs::write_requests(&scene.scenario, setup.seed, WRITE_POOL);
    let dump = setup.work.join("final.tg");
    let (daemon, log) = boot(setup, &mut live, &scene, Some(&dump))?;

    let warm_end = Instant::now() + WARMUP;
    let end = warm_end + Duration::from_secs_f64(seconds);
    let answers = drive_bursts(&daemon, &requests, warm_end, end)?;
    stop(setup, &mut live, daemon, &scene)?;

    // Oracle phase: nothing below is timed.
    tally_window(&mut live, &answers, warm_end);
    check_verdicts(&mut live, &requests, &answers);
    let sent = &requests[..answers.len()];
    let (permitted, denied, malformed) = inputs::outcome_counts(sent);
    if live.report.permitted != permitted {
        live.problems.push(format!(
            "daemon counted {} permitted rules, the stream has {permitted}",
            live.report.permitted
        ));
    }
    // The daemon's refusal counters are recorded, not checked: a refusal
    // that aborts an admission batch is counted once by the batch and
    // again by the gateway's sequential replay, so they run ahead of the
    // stream's refusals by one per aborted batch.
    live.facts
        .push(("daemon_denied", live.report.denied.to_string()));
    live.facts
        .push(("daemon_malformed", live.report.malformed.to_string()));
    let mut offline = Monitor::new(
        scene.graph.clone(),
        scene.levels.clone(),
        Box::new(CombinedRestriction),
    );
    for r in sent {
        let _ = offline.try_apply(&r.rule);
    }
    let offline_state = render_graph(offline.graph());
    let recovered_state = recover(&log, &scene.graph, &scene.levels)?;
    let dumped = std::fs::read_to_string(&dump).map_err(|e| e.to_string())?;
    if dumped != offline_state {
        live.problems
            .push("daemon's final state differs from the sequential monitor's".into());
    }
    if recovered_state != dumped {
        live.problems
            .push("CommitLog::open recovery differs from the daemon's final state".into());
    }
    let share = |n: u64| format!("{:.4}", n as f64 / sent.len().max(1) as f64);
    live.facts.push(("rules", sent.len().to_string()));
    live.facts.push(("permitted_share", share(permitted)));
    live.facts.push(("denied_share", share(denied)));
    live.facts.push(("malformed_share", share(malformed)));
    live.facts.push((
        "requests_per_batch",
        format!(
            "{:.4}",
            sent.len() as f64 / live.report.batches.max(1) as f64
        ),
    ));
    Ok(live)
}

/// Recovers the committed state from the daemon's log directory, offline.
pub fn recover(
    log: &Path,
    graph: &ProtectionGraph,
    levels: &LevelAssignment,
) -> Result<String, String> {
    let store = tg_log::DirStore::open(log).map_err(|e| e.to_string())?;
    let (_, monitor, _) = tg_log::CommitLog::open(
        Box::new(store),
        Box::new(CombinedRestriction),
        log_config(),
        Some(tg_log::seed_digest(graph, levels)),
    )
    .map_err(|e| format!("recovery of {} failed: {e}", log.display()))?;
    Ok(render_graph(monitor.graph()))
}

/// The daemon's flush policy, which every in-process replay repeats: no
/// write-through, one persist per admission batch, a snapshot every 64
/// commits.
pub fn log_config() -> tg_log::LogConfig {
    tg_log::LogConfig {
        snapshot_interval: 64,
        write_through: false,
    }
}
