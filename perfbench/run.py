#!/usr/bin/env python3
"""Builds the netaware benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of clean_pull, churn_spill, corpus_reanalysis, matrix_batch.
The benchmark is built with cargo into $CARGO_TARGET_DIR (default
.bench_build); its spans and scratch files go under
$CARGO_TARGET_DIR/perfbench. The last line of stdout is the result
object. Exits non-zero without a result if the build or the run fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Sources the measured program is built from, for the result stamp.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def git_commit():
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env=env,
        )
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            rel = f.relative_to(ROOT)
            if f.is_file() and not SKIP_DIRS.intersection(rel.parts):
                h.update(str(rel).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--locked", "--quiet",
            "--manifest-path", str(HERE / "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [
        str(target / "release" / "netaware-perfbench"),
        *sys.argv[1:],
        "--out", str(target / "perfbench"),
        "--rustc", rustc_version(),
        "--commit", git_commit(),
        "--source-digest", source_digest(),
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
