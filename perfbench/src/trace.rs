//! The traced run: per-layer times measured from outside the program.
//!
//! It replays each workload's inputs in-process through the public
//! functions the daemon and the linter call, in the order and batch
//! grouping the gateway uses, and wraps every call in a span (name,
//! start, end, parent, request id). Spans stay in memory and are written
//! to `spans.jsonl` when the run ends. Each replay also runs once with
//! the tracer off, which gives the tracing overhead. No span is added
//! inside the program; the flow-closure time inside `LintContext::new`
//! is read from the program's existing `tg_obs` span.
//!
//! Every layer is measured on the workload that drives it, so a traced
//! run reports every per-layer metric whichever workload it names: the
//! daemon layers on the `serve_write` scenario (its rule stream, and a
//! seeded stream of cross-level `can-know`/`can-share` queries), the lint
//! layers on the `lint_policy` input, all from the run's seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use tg_graph::ProtectionGraph;
use tg_hierarchy::{CombinedRestriction, MonitorStats};
use tg_inc::SharedIndex;
use tg_lint::{Lint, LintContext, Registry};
use tg_log::{CommitLog, DirStore};
use tg_par::{par_queries, Pool, Query};
use tg_serve::proto::{decode_frame, encode_frame};
use tg_serve::{parse_request, Frame, Opcode, Request, Verdict};

use crate::daemon::{Daemon, JOBS};
use crate::inputs::{self, ReadRequest, WriteRequest};
use crate::lint;
use crate::serve::{self, log_config, Scene, Setup, BURST, WARMUP};
use crate::stats::median;
use crate::Outcome;

/// Rules replayed in-process per pass (128 bursts).
const REPLAY_WRITES: usize = 4096;
/// Queries replayed in-process, each once untraced and once traced.
const REPLAY_READS: usize = 768;
/// Queries per round: untraced and traced rounds alternate.
const READ_ROUND: usize = 96;
/// Lint evaluations of each kind, traced and untraced.
const REPLAY_LINTS: usize = 8;
/// Parses timed for `graph.parse_ms`.
const REPLAY_PARSES: usize = 21;
/// Request ids of replayed queries start here, clear of the rules'.
const READ_IDS: u64 = 1 << 32;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// An in-memory span recorder; a disabled one records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    fn begin(&mut self, name: &'static str, request: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost span (which must be `id`) and returns its
    /// duration in ns (0 when tracing is off).
    fn end(&mut self, id: Option<usize>) -> u64 {
        let Some(id) = id else { return 0 };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Records a span timed elsewhere (on a pool worker) under the
    /// innermost open one.
    fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            request,
        });
    }

    fn rename(&mut self, id: Option<usize>, name: &'static str) {
        if let Some(id) = id {
            self.spans[id].name = name;
        }
    }

    /// Each span's duration minus the time its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self times of every span called `name`, in µs.
    fn self_us(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect()
    }

    /// Self times of the spans called `name`, summed per request id, in
    /// µs (ordered by request id).
    fn per_request_us(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.name == name {
                *sums.entry(s.request).or_default() += ns as f64 / 1e3;
            }
        }
        sums.into_values().collect()
    }

    fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// What one in-process `serve_write` pass did.
struct WriteReplay {
    total_s: f64,
    /// Per request: the layer time the gateway spent in its burst up to
    /// and including this request's answer, in µs (traced pass only).
    attributed_us: Vec<f64>,
    failed: u64,
    batches: u64,
    aborted: u64,
    snapshots: u64,
    persists: u64,
    stats: MonitorStats,
    log_bytes: u64,
}

fn codec_request(id: u64, opcode: Opcode, payload: &str) -> Result<Request, String> {
    let bytes = encode_frame(&Frame::text(id, opcode, payload));
    let frame = decode_frame(&bytes).map_err(|e| e.to_string())?;
    parse_request(&frame)
}

fn codec_response(id: u64, verdict: Verdict) -> Result<Frame, String> {
    decode_frame(&encode_frame(&verdict.into_frame(id))).map_err(|e| e.to_string())
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        total += entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?
            .len();
    }
    Ok(total)
}

/// Replays `requests` as the gateway handles them: bursts of `BURST`
/// decoded one by one, admission batches of `group` rules (one
/// `try_apply_all`, the sequential replay on abort, one snapshot
/// opportunity, one persist, one incremental audit), then the encoded
/// answers.
fn replay_write(
    tr: &mut Tracer,
    scene: &Scene,
    requests: &[WriteRequest],
    group: usize,
    log_dir: &Path,
) -> Result<WriteReplay, String> {
    let started = Instant::now();
    let span = tr.begin("log.create", 0);
    let store = DirStore::open(log_dir).map_err(|e| e.to_string())?;
    let (log, mut monitor) = CommitLog::create(
        Box::new(store),
        scene.graph.clone(),
        scene.levels.clone(),
        Box::new(CombinedRestriction),
        log_config(),
    )
    .map_err(|e| e.to_string())?;
    tr.end(span);
    let span = tr.begin("inc.build", 0);
    let index = SharedIndex::new(monitor.graph(), monitor.levels(), &CombinedRestriction);
    tr.end(span);
    monitor.attach_observer(index.observer());

    let mut out = WriteReplay {
        total_s: 0.0,
        attributed_us: Vec::with_capacity(requests.len()),
        failed: 0,
        batches: 0,
        aborted: 0,
        snapshots: 0,
        persists: 0,
        stats: MonitorStats::default(),
        log_bytes: 0,
    };
    let mut id = 0u64;
    for burst in requests.chunks(BURST) {
        let mut layer_ns = 0u64;
        for batch in burst.chunks(group) {
            let first = id + 1;
            let mut rules = Vec::with_capacity(batch.len());
            for r in batch {
                id += 1;
                let span = tr.begin("serve.frame_codec", id);
                let request = codec_request(id, Opcode::Apply, &r.line)?;
                layer_ns += tr.end(span);
                match request {
                    Request::Apply(rule) => rules.push(*rule),
                    other => return Err(format!("apply decoded as {other:?}")),
                }
            }
            let flush = tr.begin("gateway.flush", first);
            let span = tr.begin("monitor.apply", first);
            let verdicts: Vec<Verdict> = match monitor.try_apply_all(&rules) {
                Ok(effects) => effects
                    .iter()
                    .map(|_| Verdict::Ok("applied".into()))
                    .collect(),
                Err(_) => {
                    out.aborted += 1;
                    rules
                        .iter()
                        .map(|rule| match monitor.try_apply(rule) {
                            Ok(_) => Verdict::Ok("applied".into()),
                            Err(e) => Verdict::Refused(e.to_string()),
                        })
                        .collect()
                }
            };
            tr.end(span);
            let span = tr.begin("log.snapshot_check", first);
            let snapshot = log.maybe_snapshot(&monitor).map_err(|e| e.to_string())?;
            if snapshot.is_some() {
                out.snapshots += 1;
                tr.rename(span, "log.snapshot");
            }
            tr.end(span);
            let span = tr.begin("log.persist", first);
            log.persist().map_err(|e| e.to_string())?;
            out.persists += 1;
            tr.end(span);
            let span = tr.begin("inc.audit", first);
            let _ = index.audit_clean();
            tr.end(span);
            layer_ns += tr.end(flush);
            out.batches += 1;
            for (k, (r, verdict)) in batch.iter().zip(verdicts).enumerate() {
                let rid = first + k as u64;
                let span = tr.begin("serve.frame_codec", rid);
                let frame = codec_response(rid, verdict)?;
                layer_ns += tr.end(span);
                out.attributed_us.push(layer_ns as f64 / 1e3);
                if frame.opcode != r.expect_opcode || frame.payload_text() != r.expect_payload {
                    out.failed += 1;
                }
            }
        }
    }
    out.total_s = started.elapsed().as_secs_f64();
    out.stats = monitor.stats();
    out.log_bytes = dir_bytes(log_dir)?;
    Ok(out)
}

/// Replays `requests` one query per `par_queries` call, as the gateway
/// answers a wave, with request ids from `first_id`; returns the pass
/// time and the wrong answers.
fn replay_read(
    tr: &mut Tracer,
    graph: &ProtectionGraph,
    requests: &[ReadRequest],
    expected: &[bool],
    first_id: u64,
    pool: &Pool,
) -> Result<(f64, u64), String> {
    let started = Instant::now();
    let mut failed = 0;
    for (i, (r, want)) in requests.iter().zip(expected).enumerate() {
        let id = first_id + i as u64;
        let span = tr.begin("serve.frame_codec", id);
        let request = codec_request(id, r.opcode, &r.payload)?;
        tr.end(span);
        let name = |n: &str| graph.find_by_name(n).ok_or(format!("unknown vertex {n}"));
        let (query, span_name) = match request {
            Request::CanKnow(x, y) => (Query::CanKnow(name(&x)?, name(&y)?), "query.can_know"),
            Request::CanShare(right, x, y) => (
                Query::CanShare(right, name(&x)?, name(&y)?),
                "query.can_share",
            ),
            other => return Err(format!("query decoded as {other:?}")),
        };
        let span = tr.begin(span_name, id);
        let answer = par_queries(graph, &[query], pool)[0];
        tr.end(span);
        let span = tr.begin("serve.frame_codec", id);
        let frame = codec_response(id, Verdict::Ok(answer.to_string()))?;
        tr.end(span);
        if frame.payload_text() != want.to_string() {
            failed += 1;
        }
    }
    Ok((started.elapsed().as_secs_f64(), failed))
}

fn pass_name(code: &str) -> &'static str {
    match code {
        "TG005" => "lint.tg005",
        "TG003" => "lint.tg003",
        "TG009" => "lint.tg009",
        "TG010" => "lint.tg010",
        _ => "lint.other_pass",
    }
}

/// One traced lint evaluation, shaped like `Registry::run_parallel`:
/// the context (with the flow-closure time read from `tg_obs`), the
/// applicable passes from `Registry::lints()` fanned out over the pool
/// with each `Lint::run` timed on its worker, then the canonical sort and
/// JSON rendering. Returns the JSON and the closure time in ms.
fn traced_lint(
    tr: &mut Tracer,
    run: u64,
    input: &lint::Parsed,
    registry: &Registry,
    pool: &Pool,
    path: &str,
) -> (String, f64, f64) {
    let span = tr.begin("lint.context", run);
    let session = tg_obs::Session::start(true, false);
    let cx = LintContext::new(&input.graph, Some(&input.levels), Some(&input.srcmap));
    let closure_ns = session
        .snapshot()
        .span(tg_obs::SpanKind::FlowClosure)
        .total_ns;
    drop(session);
    tr.end(span);
    let passes: Vec<&dyn Lint> = registry
        .lints()
        .filter(|pass| !(pass.needs_policy() && cx.levels.is_none()))
        .collect();
    let (per_pass, _) = pool.run(&passes, |pass| {
        let start = Instant::now();
        let diags = pass.run(&cx);
        (diags, start, Instant::now())
    });
    // The passes overlap on the pool, so the pass phase is the interval
    // from the first start to the last end, not the sum of the passes.
    let first = per_pass.iter().map(|p| p.1).min();
    let last = per_pass.iter().map(|p| p.2).max();
    let phase_ms = first
        .zip(last)
        .map_or(0.0, |(a, b)| (b - a).as_secs_f64() * 1e3);
    let mut diags = Vec::new();
    for (pass, (found, start, end)) in passes.iter().zip(per_pass) {
        tr.record(pass_name(pass.rule().code), run, start, end);
        diags.extend(found);
    }
    let span = tr.begin("lint.render", run);
    let json = lint::finish(diags, path);
    tr.end(span);
    (json, closure_ns as f64 / 1e6, phase_ms)
}

fn overhead(out: &mut Outcome, name: &'static str, traced: f64, untraced: f64) {
    out.facts
        .push((name, format!("{:.2}", (traced / untraced - 1.0) * 100.0)));
}

/// Runs the traced measurement (see the module docs). The lint layers
/// go first, while the process heap is still fresh, as it is in the
/// linter child of the untraced run. The live phase sends `serve_write`
/// traffic for `seconds / 2`.
pub fn run(setup: &Setup<'_>, seconds: f64) -> Result<Outcome, String> {
    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut out = Outcome::default();
    let pool = Pool::new(JOBS);
    trace_lint(&mut on, &mut out, setup, &pool)?;
    let scene = serve::scene(setup.work, setup.seed)?;
    trace_read(&mut on, &mut off, &mut out, setup.seed, &scene, &pool)?;
    trace_write(&mut on, &mut off, &mut out, setup, &scene, seconds / 2.0)?;

    // Codec time per request over both daemon replays.
    let codec = median(&on.per_request_us("serve.frame_codec"));
    out.metric("serve.frame_codec_us", codec, "us");
    out.facts.push(("spans", on.spans.len().to_string()));
    std::fs::write(setup.work.join("spans.jsonl"), on.jsonl()).map_err(|e| e.to_string())?;
    Ok(out)
}

/// The lint layers on the `lint_policy` input: parses, then untraced
/// (`Registry::run_parallel`, as `tgq lint` runs) and traced evaluations
/// alternately.
fn trace_lint(
    on: &mut Tracer,
    out: &mut Outcome,
    setup: &Setup<'_>,
    pool: &Pool,
) -> Result<(), String> {
    let (graph_path, policy_path) = lint::write_scenario(setup.work, setup.seed)?;
    let mut parse_ms = Vec::with_capacity(REPLAY_PARSES);
    let mut input = None;
    for _ in 0..REPLAY_PARSES {
        let span = on.begin("graph.parse", 0);
        input = Some(lint::parse(&graph_path, &policy_path)?);
        parse_ms.push(on.end(span) as f64 / 1e6);
    }
    let input = input.expect("at least one parse");
    let registry = Registry::with_default_lints();
    let path = graph_path.display().to_string();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut closure_ms = Vec::new();
    let mut pass_phase_ms = Vec::new();
    let mut outputs = Vec::new();
    // Alternate which kind goes first, so neither gains from running
    // second.
    for run in 0..REPLAY_LINTS as u64 {
        for traced in [run % 2 == 0, run % 2 == 1] {
            let start = Instant::now();
            if traced {
                let (json, closure, phase) =
                    traced_lint(on, run, &input, &registry, pool, &path);
                traced_ms.push(start.elapsed().as_secs_f64() * 1e3);
                outputs.push(json);
                closure_ms.push(closure);
                pass_phase_ms.push(phase);
            } else {
                outputs.push(lint::lint_once(&input, &registry, pool, &path));
                untraced_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    out.attempted += outputs.len() as u64;
    let wrong = outputs.iter().filter(|o| **o != outputs[0]).count() as u64;
    if wrong > 0 {
        out.problems
            .push("traced lint JSON differs from Registry::run_parallel".to_string());
    }
    out.failed += wrong;
    // The host's speed drifts between evaluations, so both shares are
    // medians of per-pair (overhead) or per-evaluation (accounting)
    // ratios rather than ratios of medians.
    let paired: Vec<f64> = traced_ms
        .iter()
        .zip(&untraced_ms)
        .map(|(t, u)| t / u)
        .collect();
    overhead(out, "overhead_lint_pct", median(&paired), 1.0);

    // Per traced evaluation, in run order (every run has every span).
    let per_run =
        |name: &str| -> Vec<f64> { on.per_request_us(name).iter().map(|us| us / 1e3).collect() };
    let context = per_run("lint.context");
    let passes = [
        ("lint.tg005_ms", per_run("lint.tg005")),
        ("lint.tg003_ms", per_run("lint.tg003")),
        ("lint.tg009_ms", per_run("lint.tg009")),
        ("lint.tg010_ms", per_run("lint.tg010")),
        ("lint.other_passes_ms", per_run("lint.other_pass")),
    ];
    let render = per_run("lint.render");
    let accounted: Vec<f64> = traced_ms
        .iter()
        .enumerate()
        .map(|(i, wall)| (context[i] + pass_phase_ms[i] + render[i]) / wall)
        .collect();
    out.facts
        .push(("lint_accounted_share", format!("{:.4}", median(&accounted))));
    out.metric("flow.closure_ms", median(&closure_ms), "ms");
    out.metric("lint.context_ms", median(&context), "ms");
    for (name, values) in passes {
        out.metric(name, median(&values), "ms");
    }
    out.metric("lint.render_ms", median(&render), "ms");
    out.metric("graph.parse_ms", median(&parse_ms), "ms");
    Ok(())
}

/// The query layers on a seeded stream of cross-level queries over the
/// `serve_write` scenario, against oracle answers computed up front.
fn trace_read(
    on: &mut Tracer,
    off: &mut Tracer,
    out: &mut Outcome,
    seed: u64,
    scene: &Scene,
    pool: &Pool,
) -> Result<(), String> {
    let graph = &scene.graph;
    let reads = inputs::read_requests(&scene.scenario, seed, REPLAY_READS);
    let closure = tg_flow::FlowClosure::compute(graph);
    let expected: Vec<bool> = reads
        .iter()
        .map(|r| match r.right {
            Some(right) => tg_analysis::can_share(graph, right, r.x, r.y),
            None => closure.can_know(r.x, r.y),
        })
        .collect();
    // Untraced and traced rounds alternate, and so does which goes
    // first, so a slow spell of the host weighs on both alike.
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let rounds = reads.chunks(READ_ROUND).zip(expected.chunks(READ_ROUND));
    for (round, (reads, expected)) in rounds.enumerate() {
        let first_id = READ_IDS + (round * READ_ROUND) as u64;
        for traced in [round % 2 == 1, round % 2 == 0] {
            let tracer = if traced { &mut *on } else { &mut *off };
            let (s, failed) = replay_read(tracer, graph, reads, expected, first_id, pool)?;
            if traced {
                traced_s += s;
            } else {
                plain_s += s;
            }
            out.failed += failed;
        }
    }
    out.attempted += 2 * reads.len() as u64;
    overhead(out, "overhead_read_pct", traced_s, plain_s);
    out.metric(
        "query.can_know_us",
        median(&on.self_us("query.can_know")),
        "us",
    );
    out.metric(
        "query.can_share_us",
        median(&on.self_us("query.can_share")),
        "us",
    );
    Ok(())
}

/// The daemon write-path layers on the `serve_write` input: a live
/// phase of `seconds` for the round trip and the batch grouping, then
/// untraced and traced in-process replays with that grouping.
fn trace_write(
    on: &mut Tracer,
    off: &mut Tracer,
    out: &mut Outcome,
    setup: &Setup<'_>,
    scene: &Scene,
    seconds: f64,
) -> Result<(), String> {
    let work = setup.work;
    let writes = inputs::write_requests(&scene.scenario, setup.seed, 4 * REPLAY_WRITES);
    let daemon = Daemon::start(
        setup.tgq,
        &scene.graph_path,
        &scene.policy_path,
        &work.join("live-log"),
        None,
    )?;
    let warm_end = Instant::now() + WARMUP;
    let end = warm_end + Duration::from_secs_f64(seconds);
    let answers = serve::drive_bursts(&daemon, &writes, warm_end, end)?;
    let report = daemon.shutdown()?;
    out.attempted += answers.len() as u64;
    let mut live_us = Vec::new();
    for (i, latency, timed, response) in &answers {
        let r = &writes[*i];
        match response {
            Ok((opcode, payload)) if *opcode == r.expect_opcode && *payload == r.expect_payload => {
            }
            _ => out.failed += 1,
        }
        if timed.is_some() {
            live_us.push(*latency);
        }
    }
    let requests_per_batch = answers.len() as f64 / report.batches.max(1) as f64;
    let group = (requests_per_batch.round() as usize).clamp(1, 16);
    out.facts.push(("replay_batch", group.to_string()));

    let replayed = &writes[..REPLAY_WRITES];
    let plain = replay_write(off, scene, replayed, group, &work.join("replay-log-0"))?;
    let traced = replay_write(on, scene, replayed, group, &work.join("replay-log-1"))?;
    out.attempted += 2 * replayed.len() as u64;
    out.failed += plain.failed + traced.failed;
    overhead(out, "overhead_write_pct", traced.total_s, plain.total_s);
    let n = replayed.len() as f64;
    let us = |name: &str| median(&on.self_us(name));
    let ms = |name: &str| median(&on.self_us(name)) / 1e3;
    out.metric(
        "serve.unattributed_us",
        median(&live_us) - median(&traced.attributed_us),
        "us",
    );
    out.metric("serve.requests_per_batch", requests_per_batch, "req/batch");
    out.metric("monitor.apply_us", us("monitor.apply"), "us");
    out.metric(
        "monitor.rollback_share",
        traced.aborted as f64 / traced.batches.max(1) as f64,
        "ratio",
    );
    out.metric("monitor.permitted", traced.stats.permitted as f64, "count");
    out.metric("monitor.denied", traced.stats.denied as f64, "count");
    out.metric("monitor.malformed", traced.stats.malformed as f64, "count");
    out.metric("log.persist_us", us("log.persist"), "us");
    out.metric(
        "log.persists_per_request",
        traced.persists as f64 / n,
        "1/req",
    );
    out.metric("log.snapshot_us", us("log.snapshot"), "us");
    out.metric("log.snapshots", traced.snapshots as f64, "count");
    out.metric(
        "log.bytes_per_request",
        traced.log_bytes as f64 / n,
        "B/req",
    );
    out.metric("log.create_ms", ms("log.create"), "ms");
    out.metric("inc.audit_us", us("inc.audit"), "us");
    out.metric("inc.build_ms", ms("inc.build"), "ms");
    Ok(())
}
