#!/usr/bin/env python3
"""Builds and runs the bench_layers benchmark (standard library only).

One run, as BENCHMARK.json's command does it:

  python3 bench_layers/run.py --workload lib_nyt --seed 1 --seconds 20 --trace 0

The binary is built from source into .bench_build/ at the root of the
checkout (CMake, Release) before the first run; later runs only re-check it.
Its stdout is passed through, and the last line is the run's result:
  {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
A wrong answer, a failed build or a missing result exits non-zero.

Several runs at once, saved for compare.py:

  python3 bench_layers/run.py --workload all --seeds 1-5 --out .bench_build/runs/new
  python3 bench_layers/run.py --smoke        # every workload for 2 s
  python3 bench_layers/run.py --self-test    # must exit non-zero
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "bench_layers"
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "bench_layers"
BINARY = BUILD / "bench_layers"
WORKLOADS = ["lib_nyt", "engine_zipf", "net_mixed", "cluster_topk"]
RUN_TIMEOUT_S = 170  # every run must end within 180 s
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def temp_dir():
    """Temporary files of the build and the runs stay in the checkout."""
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return tmp


def build():
    """Configures once, then builds; build output goes to stderr."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "2"])
    env = dict(os.environ, TMPDIR=str(temp_dir()))
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=900)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"bench_layers: build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"bench_layers: build step failed: {' '.join(cmd)}")
            return False
    return BINARY.exists()


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def informational():
    """Fields recorded next to every saved run; never gated."""
    src_loc = 0
    for path in (ROOT / "src").rglob("*"):
        if path.suffix in (".h", ".cc") and path.is_file():
            with open(path, "rb") as f:
                src_loc += sum(1 for _ in f)
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git_rev = "unknown"
    return {"src_loc": src_loc, "git_rev": git_rev, "nproc": os.cpu_count()}


def run_binary(args, out_dir=None, info=None):
    """Runs the binary once; returns its exit code."""
    cmd = [str(BINARY)] + args + ["--tmpdir", str(temp_dir())]
    if "--trace" in args and args[args.index("--trace") + 1] == "1":
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        name = f"{args[args.index('--workload') + 1]}-seed" \
               f"{args[args.index('--seed') + 1]}.json"
        cmd += ["--trace-out", str(traces / name)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"bench_layers: run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        return done.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log("bench_layers: the run printed no result line")
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if out_dir is not None:
        detail = {}
        for line in lines:
            if line.startswith("# detail: "):
                detail = json.loads(line[len("# detail: "):])
        record = {"result": result, "detail": detail, "info": info}
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{detail.get('workload')}-trace{detail.get('trace')}-" \
               f"seed{detail.get('seed')}"
        n = 0
        while (out_dir / f"{stem}-{n}.json").exists():
            n += 1
        with open(out_dir / f"{stem}-{n}.json", "w") as f:
            json.dump(record, f, indent=1)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", help="several seeds, e.g. 1-5 or 1,3,7")
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--out", type=Path, help="save each run here as JSON")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()

    if not build():
        return 1
    if a.smoke or a.self_test:
        mode = "--smoke" if a.smoke else "--self-test"
        return subprocess.run([str(BINARY), mode, "--tmpdir",
                               str(temp_dir())],
                              timeout=RUN_TIMEOUT_S).returncode
    if a.workload is None:
        p.error("--workload is required")
    workloads = WORKLOADS if a.workload == "all" else [a.workload]
    seeds = parse_seeds(a.seeds) if a.seeds else [a.seed]
    info = informational() if a.out else None
    status = 0
    for seed in seeds:
        for w in workloads:
            args = ["--workload", w, "--seed", str(seed), "--seconds",
                    f"{a.seconds:g}", "--trace", a.trace]
            t0 = time.time()
            rc = run_binary(args, a.out, info)
            if len(seeds) * len(workloads) > 1:
                log(f"bench_layers: {w} seed {seed}: exit {rc}, "
                    f"{time.time() - t0:.1f} s")
            status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
