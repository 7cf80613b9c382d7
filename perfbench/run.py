#!/usr/bin/env python3
"""Build and run one benchmark measurement.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds `tgq` and the `perfbench`
harness from source (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the harness, which prints a record line and,
last, the result line: one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Exit status: 0 for a correct run, 1 when an
oracle rejected the program's output, 2 for a failed run (no result
line), 3 for a run that timed out.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_write", "lint_policy")
# The harness must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target_dir):
    """Builds `tgq` (the repository's CLI) and the harness."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for command in (
        ["cargo", "build", "--release", "--offline", "-p", "tg-cli", "--bin", "tgq"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(HERE / "Cargo.toml")],
    ):
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(command)}")


def revision():
    """The git revision when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            return "git:" + done.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted((ROOT / "crates").rglob("*.rs"))
    files += sorted((ROOT / "crates").rglob("Cargo.toml"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src:" + digest.hexdigest()[:16]


def filesystem_of(path):
    """The filesystem type of the mount that holds `path`."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as mounts:
            for line in mounts:
                fields = line.split()
                mount_point = fields[4]
                dash = fields.index("-")
                inside = path == mount_point or path.startswith(
                    mount_point.rstrip("/") + "/")
                if inside and len(mount_point) > len(best):
                    best, fstype = mount_point, fields[dash + 1]
    except OSError:
        pass
    return fstype


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} holds no program to measure (no Cargo.toml and crates/)")
    os.chdir(ROOT)
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    build(target_dir)

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.parent.mkdir(parents=True, exist_ok=True)
    command = [
        str(target_dir / "release" / "perfbench"), "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--tgq", str(target_dir / "release" / "tgq"),
        "--work", str(work),
        "--rev", revision(),
        "--log-fs", filesystem_of(work.parent),
    ]
    # A session of its own, so a timeout can stop the harness and every
    # daemon or linter it started.
    harness = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = harness.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=3)
    lines = stdout.strip().splitlines()
    if harness.returncode not in (0, 1) or not lines:
        fail(f"harness exited with {harness.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("harness printed a malformed result line")
    sys.stdout.write(stdout if stdout.endswith("\n") else stdout + "\n")
    sys.exit(harness.returncode)


if __name__ == "__main__":
    main()
