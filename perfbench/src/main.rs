//! The benchmark harness for the `tgq` policy daemon and linter.
//!
//! `perfbench run --workload <serve_write|lint_policy> --seed
//! <n> --seconds <s> --trace <0|1> --tgq <path> --work <dir>` measures
//! one run and prints two JSON lines: a record of the environment and
//! inputs, then the result (`correct`, `attempted`, `failed`,
//! `metrics`). `run.py` builds this harness and `tgq`, then calls it.
//! `perfbench lint-worker` is the linter child of `lint_policy`.

mod daemon;
mod inputs;
mod lint;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::{median, quantile, Metric};

const WORKLOADS: [&str; 2] = ["serve_write", "lint_policy"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tgq: PathBuf,
    work: PathBuf,
    rev: String,
    log_fs: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let number = |flag: &str| -> Result<f64, String> {
        let raw = get(flag)?;
        raw.parse()
            .map_err(|_| format!("{flag} expects a number, got {raw:?}"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed expects a whole number".to_string())?,
        seconds,
        trace,
        tgq: PathBuf::from(get("--tgq")?),
        work: PathBuf::from(get("--work")?),
        rev: get("--rev").unwrap_or("unknown").to_string(),
        log_fs: get("--log-fs").unwrap_or("unknown").to_string(),
    })
}

/// One run's measurements, before printing.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Oracle failures, for the record line; any makes the run incorrect.
    problems: Vec<String>,
    /// Seeded input facts and overheads, for the record line.
    facts: Vec<(&'static str, String)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

fn end_to_end(latencies_us: &[f64], window_s: f64, setup_s: f64, rss: f64) -> Vec<Metric> {
    vec![
        Metric {
            name: "throughput_rps",
            value: latencies_us.len() as f64 / window_s.max(1e-9),
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_us",
            value: median(latencies_us),
            unit: "us",
        },
        Metric {
            name: "latency_p99_us",
            value: quantile(latencies_us, 0.99),
            unit: "us",
        },
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mib",
            value: rss,
            unit: "MiB",
        },
    ]
}

fn measure(args: &Args) -> Result<Outcome, String> {
    let work = daemon::fresh_dir(args.work.clone())?;
    let setup = serve::Setup {
        tgq: &args.tgq,
        work: &work,
        seed: args.seed,
    };
    let mut problems = Vec::new();
    if let Err(e) = inputs::self_test(&args.workload, args.seed) {
        problems.push(format!("input self-test: {e}"));
    }
    let mut outcome = if args.trace {
        trace::run(&setup, args.seconds)?
    } else if args.workload == "lint_policy" {
        let run = lint::run(&work, args.seed, args.seconds)?;
        let mut facts = run.facts;
        facts.push(("samples", run.latencies_us.len().to_string()));
        Outcome {
            metrics: end_to_end(
                &run.latencies_us,
                run.window_s,
                run.setup_s,
                run.peak_rss_mib,
            ),
            // The warm-up evaluation is checked too.
            attempted: run.latencies_us.len() as u64 + 1,
            failed: run.failed,
            problems: run.problems,
            facts,
        }
    } else {
        let live = serve::run_write(&setup, args.seconds)?;
        let mut facts = live.facts;
        facts.push(("samples", live.latencies_us.len().to_string()));
        facts.push(("daemon_frames", live.report.frames.to_string()));
        facts.push(("daemon_batches", live.report.batches.to_string()));
        let setups: Vec<String> = live.setup_s.iter().map(|s| format!("{s:.4}")).collect();
        facts.push(("setup_samples_s", setups.join(" ")));
        Outcome {
            metrics: end_to_end(
                &live.latencies_us,
                live.window_s,
                median(&live.setup_s),
                live.peak_rss_mib,
            ),
            attempted: live.attempted,
            failed: live.failed,
            problems: live.problems,
            facts,
        }
    };
    problems.append(&mut outcome.problems);
    outcome.problems = problems;
    // Log directories are large; the scenario files and spans stay for
    // inspection.
    if let Ok(entries) = std::fs::read_dir(&work) {
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    Ok(outcome)
}

/// The record line: environment, inputs and oracle problems of the run.
fn record(args: &Args, outcome: &Outcome) -> String {
    use stats::{object, string};
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let environment = object(&[
        ("host_parallelism", parallelism.to_string()),
        ("jobs", daemon::JOBS.to_string()),
        ("rev", string(&args.rev)),
        ("log_fs", string(&args.log_fs)),
        ("batch_window", "16".to_string()),
        ("snapshot_interval", "64".to_string()),
        (
            "flush_policy",
            string("write_through false; one persist (open, append, fdatasync) per admission batch; a snapshot every 64 commits"),
        ),
    ]);
    let facts: Vec<(&str, String)> = outcome.facts.iter().map(|(k, v)| (*k, string(v))).collect();
    let problems: Vec<String> = outcome.problems.iter().map(|p| string(p)).collect();
    object(&[(
        "perfbench",
        object(&[
            ("workload", string(&args.workload)),
            ("seed", args.seed.to_string()),
            ("seconds", stats::number(args.seconds)),
            ("trace", args.trace.to_string()),
            ("environment", environment),
            ("inputs", object(&facts)),
            ("problems", format!("[{}]", problems.join(", "))),
        ]),
    )])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint-worker") => {
            let [_, graph, policy, seconds, out] = args.as_slice() else {
                eprintln!("usage: perfbench lint-worker <graph> <policy> <seconds> <out>");
                return ExitCode::from(2);
            };
            let seconds: f64 = seconds.parse().unwrap_or(1.0);
            match lint::worker(graph.as_ref(), policy.as_ref(), seconds, out.as_ref()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench lint-worker: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("run") => {
            let args = match parse_args(&args[1..]) {
                Ok(args) => args,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::from(2);
                }
            };
            let outcome = match measure(&args) {
                Ok(outcome) => outcome,
                Err(e) => {
                    eprintln!("perfbench: {} failed: {e}", args.workload);
                    return ExitCode::from(2);
                }
            };
            let correct = outcome.problems.is_empty() && outcome.failed == 0;
            for problem in &outcome.problems {
                eprintln!("perfbench: oracle: {problem}");
            }
            println!("{}", record(&args, &outcome));
            println!(
                "{}",
                stats::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        _ => {
            eprintln!(
                "usage: perfbench run --workload <w> --seed <n> --seconds <s> --trace <0|1> --tgq <path> --work <dir>"
            );
            ExitCode::from(2)
        }
    }
}
