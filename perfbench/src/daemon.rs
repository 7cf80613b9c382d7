//! Runs `tgq serve` as a child process the way a user does: TCP
//! loopback, a commit log on the local filesystem, the default batch
//! window (16) and snapshot interval (64), and `--jobs 2`.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use tg_serve::{Client, Opcode};

/// Worker threads the daemon's query pool runs with.
pub const JOBS: usize = 2;

/// A running daemon.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
    /// Seconds from spawning the process to the first answered `ping`:
    /// graph and policy parse, `CommitLog::create`, bind, and the
    /// gateway's `SharedIndex` build.
    pub setup_s: f64,
}

/// What the daemon printed when it shut down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Report {
    pub frames: u64,
    pub batches: u64,
    pub permitted: u64,
    pub denied: u64,
    pub malformed: u64,
}

impl Daemon {
    /// Starts `tgq serve` on `graph` and `policy` with its commit log in
    /// `log_dir` (which must not exist yet), optionally dumping the final
    /// state to `dump`, and waits until it answers a `ping`.
    pub fn start(
        tgq: &Path,
        graph: &Path,
        policy: &Path,
        log_dir: &Path,
        dump: Option<&Path>,
    ) -> Result<Daemon, String> {
        let started = Instant::now();
        let mut command = Command::new(tgq);
        command
            .arg("serve")
            .arg(graph)
            .arg(policy)
            .args(["--listen", "127.0.0.1:0", "--log"])
            .arg(log_dir)
            .args(["--jobs", &JOBS.to_string()]);
        if let Some(dump) = dump {
            command.arg("--dump-state").arg(dump);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", tgq.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("tgq serve exited before it was ready".to_string());
            }
            addr = line
                .strip_prefix("listening on ")
                .and_then(|rest| rest.strip_suffix(" (TGP1)\n"))
                .map(str::to_string);
        }
        let addr = addr.expect("loop ends with an address");
        let mut daemon = Daemon {
            child,
            stdout,
            addr,
            setup_s: 0.0,
        };
        let pong = daemon.connect()?.request(Opcode::Ping, "")?;
        if pong.opcode != Opcode::Ok {
            return Err(format!("ping answered {:?}", pong.opcode));
        }
        daemon.setup_s = started.elapsed().as_secs_f64();
        Ok(daemon)
    }

    /// Opens a new session.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_tcp(&self.addr)
    }

    /// The daemon's resident-set high-water mark, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(self.child.id())
    }

    /// Sends `shutdown`, waits for the process to exit, and parses its
    /// closing report.
    pub fn shutdown(mut self) -> Result<Report, String> {
        let bye = self.connect()?.request(Opcode::Shutdown, "")?;
        if bye.opcode != Opcode::Ok {
            return Err(format!("shutdown answered {:?}", bye.opcode));
        }
        let mut text = String::new();
        self.stdout
            .read_to_string(&mut text)
            .map_err(|e| e.to_string())?;
        let status = wait_with_deadline(&mut self.child, Duration::from_secs(60))?;
        if !status.success() {
            return Err(format!("tgq serve exited with {status}"));
        }
        parse_report(&text)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A daemon still running here was abandoned on an error path.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn wait_with_deadline(
    child: &mut Child,
    deadline: Duration,
) -> Result<std::process::ExitStatus, String> {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Ok(status);
        }
        if start.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err("tgq serve did not exit after shutdown".to_string());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Reads `VmHWM` of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read the status of process {pid}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM for process {pid}"))
}

/// Every number on the first line of `text` that contains `needle`.
fn numbers(text: &str, needle: &str) -> Result<Vec<u64>, String> {
    let line = text
        .lines()
        .find(|l| l.contains(needle))
        .ok_or_else(|| format!("daemon report lacks a {needle:?} line"))?;
    Ok(line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect())
}

fn parse_report(text: &str) -> Result<Report, String> {
    let served = numbers(text, "frames over")?;
    let batches = numbers(text, "admission batches")?;
    let monitor = numbers(text, "permitted,")?;
    match (served.as_slice(), batches.as_slice(), monitor.as_slice()) {
        ([frames, ..], [batches, ..], [permitted, denied, malformed, ..]) => Ok(Report {
            frames: *frames,
            batches: *batches,
            permitted: *permitted,
            denied: *denied,
            malformed: *malformed,
        }),
        _ => Err(format!("unreadable daemon report:\n{text}")),
    }
}

/// A fresh, empty working directory for one run.
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Starts `count` throwaway daemons one after another, each on a fresh
/// log directory under `work`, and returns their set-up times.
pub fn setup_samples(
    tgq: &Path,
    graph: &Path,
    policy: &Path,
    work: &Path,
    count: usize,
) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(count);
    for i in 0..count {
        let log = work.join(format!("setup-log-{i}"));
        let daemon = Daemon::start(tgq, graph, policy, &log, None)?;
        samples.push(daemon.setup_s);
        daemon.shutdown()?;
        std::fs::remove_dir_all(&log).map_err(|e| e.to_string())?;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_shutdown_report() {
        let text = "commit log created in x\n\
            served 10 frames over 2 sessions (0 protocol errors)\n\
            3 admission batches, 1 refusals\n\
            7 permitted, 1 denied, 0 malformed, 0 refused\n";
        assert_eq!(
            parse_report(text).unwrap(),
            Report {
                frames: 10,
                batches: 3,
                permitted: 7,
                denied: 1,
                malformed: 0
            }
        );
    }
}
