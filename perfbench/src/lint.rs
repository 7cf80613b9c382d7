//! The `lint_policy` workload: the calls `tgq lint <g> <p> --format
//! json` makes, repeated in a child process so that its peak RSS is the
//! linter's alone.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use tg_graph::{parse_graph_with_spans, Diagnostic, ProtectionGraph, SourceMap};
use tg_hierarchy::policy::parse_policy;
use tg_hierarchy::LevelAssignment;
use tg_lint::{apply_deny, render, LintContext, Registry};
use tg_par::Pool;

use crate::daemon::{peak_rss_mib, JOBS};
use crate::stats;

/// Parses before the first evaluation, and again after each timed one:
/// `setup_s` is their median. One parse takes about 2 ms, so a single
/// one would be mostly timer noise, and spreading them over the run
/// makes a slow spell of the host move the median less.
const PARSE_REPS: usize = 51;
const PARSES_BETWEEN: usize = 10;

/// A parsed lint input, as `tgq lint` reads it.
pub struct Parsed {
    pub graph: ProtectionGraph,
    pub srcmap: SourceMap,
    pub levels: LevelAssignment,
}

/// Reads and parses the graph (with source spans) and the policy.
pub fn parse(graph_path: &Path, policy_path: &Path) -> Result<Parsed, String> {
    let text = std::fs::read_to_string(graph_path).map_err(|e| e.to_string())?;
    let (graph, srcmap) = parse_graph_with_spans(&text).map_err(|e| e.to_string())?;
    let policy = std::fs::read_to_string(policy_path).map_err(|e| e.to_string())?;
    let levels = parse_policy(&policy, &graph).map_err(|e| e.to_string())?;
    Ok(Parsed {
        graph,
        srcmap,
        levels,
    })
}

/// Applies `--deny` (none), the canonical sort and the JSON renderer, as
/// `tgq lint --format json` does after the passes.
pub fn finish(mut diags: Vec<Diagnostic>, path: &str) -> String {
    apply_deny(&mut diags, &[]);
    diags.sort_by(Diagnostic::canonical_cmp);
    render::render_json(&diags, path)
}

/// One `tgq lint --format json` evaluation: context, parallel passes,
/// rendering.
pub fn lint_once(input: &Parsed, registry: &Registry, pool: &Pool, path: &str) -> String {
    let cx = LintContext::new(&input.graph, Some(&input.levels), Some(&input.srcmap));
    finish(registry.run_parallel(&cx, pool), path)
}

/// Reads and parses `reps` times, recording each time in seconds.
fn timed_parses(
    graph: &Path,
    policy: &Path,
    reps: usize,
    parse_s: &mut Vec<f64>,
) -> Result<Parsed, String> {
    let mut input = None;
    for _ in 0..reps {
        let start = Instant::now();
        input = Some(parse(graph, policy)?);
        parse_s.push(start.elapsed().as_secs_f64());
    }
    Ok(input.expect("at least one parse"))
}

/// The linter child: parses `PARSE_REPS` times, lints once to warm up,
/// then lints for `seconds` (parsing `PARSES_BETWEEN` times after each
/// evaluation, outside its timing), and writes its measurements and the
/// first JSON output to `out`.
pub fn worker(graph: &Path, policy: &Path, seconds: f64, out: &Path) -> Result<(), String> {
    let mut parse_s = Vec::new();
    let input = timed_parses(graph, policy, PARSE_REPS, &mut parse_s)?;
    let registry = Registry::with_default_lints();
    let pool = Pool::new(JOBS);
    let path = graph.display().to_string();
    let first = lint_once(&input, &registry, &pool, &path);
    let mut identical = true;
    let mut latencies_us = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        let start = Instant::now();
        let json = lint_once(&input, &registry, &pool, &path);
        latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
        identical &= json == first;
        timed_parses(graph, policy, PARSES_BETWEEN, &mut parse_s)?;
    }
    let mut text = String::new();
    text.push_str(&format!("setup_s {}\n", stats::median(&parse_s)));
    // The timed window is the evaluations' own time: the parses between
    // them are set-up samples, not lint work.
    let busy_s = latencies_us.iter().sum::<f64>() / 1e6;
    text.push_str(&format!("window_s {busy_s}\n"));
    for l in &latencies_us {
        text.push_str(&format!("latency_us {l}\n"));
    }
    text.push_str(&format!("identical {identical}\n"));
    text.push_str(&format!(
        "peak_rss_mib {}\n",
        peak_rss_mib(std::process::id())?
    ));
    text.push_str("json\n");
    text.push_str(&first);
    std::fs::write(out, text).map_err(|e| e.to_string())
}

/// What the parent learns from one linter child.
pub struct LintRun {
    pub latencies_us: Vec<f64>,
    pub window_s: f64,
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub facts: Vec<(&'static str, String)>,
}

/// Writes the `lint_policy` scenario for `seed` to `work`; returns the
/// graph and policy paths.
pub fn write_scenario(work: &Path, seed: u64) -> Result<(PathBuf, PathBuf), String> {
    let scenario = crate::inputs::lint_scenario(seed);
    let graph_path = work.join("lint.tg");
    let policy_path = work.join("lint.pol");
    std::fs::write(&graph_path, scenario.graph_text()).map_err(|e| e.to_string())?;
    std::fs::write(&policy_path, scenario.policy_text()).map_err(|e| e.to_string())?;
    Ok((graph_path, policy_path))
}

/// Writes the lint scenario, computes the oracle JSON with
/// `Registry::run_parallel` (and checks it against the sequential
/// `Registry::run`), runs the linter child for `seconds`, and checks
/// every output against the oracle.
pub fn run(work: &Path, seed: u64, seconds: f64) -> Result<LintRun, String> {
    let (graph_path, policy_path) = write_scenario(work, seed)?;
    let path = graph_path.display().to_string();
    let input = parse(&graph_path, &policy_path)?;
    let registry = Registry::with_default_lints();
    let oracle = lint_once(&input, &registry, &Pool::new(JOBS), &path);
    let cx = LintContext::new(&input.graph, Some(&input.levels), Some(&input.srcmap));
    if finish(registry.run(&cx), &path) != oracle {
        return Err("Registry::run_parallel and Registry::run disagree".into());
    }

    let out = work.join("lint-worker.out");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .arg("lint-worker")
        .arg(&graph_path)
        .arg(&policy_path)
        .arg(seconds.to_string())
        .arg(&out)
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the linter child: {e}"))?;
    if !status.success() {
        return Err(format!("linter child exited with {status}"));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| e.to_string())?;
    let (head, json) = text
        .split_once("json\n")
        .ok_or("linter child wrote no JSON")?;
    let value = |key: &str| -> Result<f64, String> {
        head.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
            .ok_or_else(|| format!("linter child wrote no {key}"))
    };
    let latencies_us: Vec<f64> = head
        .lines()
        .filter_map(|l| l.strip_prefix("latency_us ")?.parse().ok())
        .collect();
    let mut run = LintRun {
        window_s: value("window_s")?,
        setup_s: value("setup_s")?,
        peak_rss_mib: value("peak_rss_mib")?,
        failed: 0,
        problems: Vec::new(),
        facts: vec![
            ("scale", crate::inputs::LINT_SCALE.to_string()),
            ("vertices", input.graph.vertex_count().to_string()),
            ("edges", input.graph.edge_count().to_string()),
            ("oracle_bytes", oracle.len().to_string()),
        ],
        latencies_us,
    };
    if !head.contains("identical true") {
        run.failed = run.latencies_us.len() as u64;
        run.problems
            .push("lint JSON differed between runs of the same input".into());
    } else if json != oracle {
        run.failed = run.latencies_us.len() as u64 + 1;
        run.problems
            .push("lint JSON differs from Registry::run_parallel".into());
    }
    Ok(run)
}
