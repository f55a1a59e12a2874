#!/usr/bin/env python3
"""Build the workspace's oracle worker and the benchmark, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <fig4-cold|fig6-pooled|serve-warm> \
        --seed N --seconds S --trace 0|1

Arguments are passed through to the `perfbench` binary. Builds go to
$CARGO_TARGET_DIR (default: .bench_build); run files go to .bench_out.
Cargo's output goes to stderr, so the last line of stdout is the result.
Exits non-zero, printing no result, when either build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Sources whose digest identifies the measured code when git cannot.
DIGESTED = ["Cargo.toml", "crates", "src", "vendor", "perfbench/Cargo.toml", "perfbench/src"]
# A run that outlives this is stuck; the benchmark's own limit is 180 s.
RUN_TIMEOUT_S = 170


def source_digest():
    h = hashlib.sha256()
    for top in DIGESTED:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if Path(top).resolve() != ROOT:
            return ""
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", "Cargo.toml",
         "-p", "glade-targets", "--bin", "glade-oracle-worker"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        if not (ROOT / cmd[cmd.index("--manifest-path") + 1]).is_file():
            print(f"run.py: {cmd[cmd.index('--manifest-path') + 1]} is missing", file=sys.stderr)
            return False
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
    if not build(env):
        print("run.py: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_GIT_COMMIT"] = git_commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    cmd = [str(target / "release" / "perfbench"), *sys.argv[1:],
           "--worker", str(target / "release" / "glade-oracle-worker"), "--out", ".bench_out"]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
