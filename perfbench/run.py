#!/usr/bin/env python3
"""Build and run the AIDE end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: offload-paper, flaky-link, replay, fleet. The first run configures
and builds perfbench/ (the AIDE libraries from src/ plus the driver) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later runs only let the build check that it is up to date. Build output goes
to stderr. The driver's stdout is passed through unchanged: its last line is
the result object. A traced run (--trace 1) also writes its spans, as Chrome
trace-event JSON, beside the build. Exits non-zero, printing no result, when
the build or the run fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    exe = build_dir / "perfbench_driver"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    if not exe.exists():
        raise SystemExit("perfbench: build produced no driver")
    return exe


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["offload-paper", "flaky-link", "replay", "fleet"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--reduced", action="store_true",
                    help="self-test scale: fewer strata, smaller fleet")
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="self-test: corrupt one unit's reference checksum")
    args = ap.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_root / "perfbench").resolve()
    exe = build(build_dir)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.reduced:
        cmd.append("--reduced")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    if args.trace == "1":
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{args.workload}-{args.seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                           text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 3
    if r.returncode != 0:
        print(f"perfbench: driver exited with {r.returncode}", file=sys.stderr)
        return r.returncode or 1
    sys.stdout.write(r.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
