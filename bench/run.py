"""spinpairs benchmark: time, memory and correctness of four certification workloads.

    python3 bench/run.py --workload table --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 1 --trace 0 --quick

Run from the root of a checkout.  Each workload runs in its own child
process (`worker.py`) under an address-space limit, so peak memory is per
workload and a `MemoryError` is a counted failure, not a dead machine.
With `--trace 0` the last stdout line is the end-to-end metrics; with
`--trace 1` it is the per-layer metrics of a traced run.  The exit code is
0 only if every item passed its correctness gate.  A record of the run,
with its environment, is written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ["table", "covers", "roundtrip", "invariants"]

# set-up is sampled in this many fresh processes, and its median reported
SETUP_SAMPLES = 5
# address space of each child; generous for every workload at these sizes
MEMORY_LIMIT_BYTES = 3 << 30
# the whole command must end within 180 s
DEADLINE_S = 170.0

END_TO_END = {
    "pass_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
}


class BenchError(RuntimeError):
    """A child process died or printed no result."""


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def run_child(args: list, timeout: float) -> dict:
    """Run worker.py with `args` under the memory limit; its last stdout line."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              preexec_fn=_limit_memory, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out after {exc.timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def environment(seed: int) -> dict:
    git = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spinpairs").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_commit": git, "src_sha256": src.hexdigest(), "seed": seed,
            "memory_limit_bytes": MEMORY_LIMIT_BYTES}


def run_workload(name: str, seed: int, seconds: float, trace: int, quick: bool,
                 deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if quick:
        common.append("--quick")
    setups = []
    if not trace and not quick:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_child(common + ["--setup-only"],
                                    deadline - time.monotonic())["setup_s"])
    res = run_child(common + ["--trace", str(trace)], deadline - time.monotonic())
    setups.append(res["setup_s"])
    res["setup_samples"] = setups
    if trace:
        res["metrics"] = res.pop("layers")
    else:
        res["metrics"] = {
            "pass_s": res["pass_s"], "cpu_s": res["cpu_s"],
            "setup_s": statistics.median(setups), "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - res["failed"] / res["attempted"],
        }
    return res


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    from tracer import metric_unit  # imports numpy; only traced runs need it
    return metric_unit(name)[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure passes for about this long; at least one pass runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true", help="one pass at minimal size")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, exit through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "spinpairs" / "__init__.py").is_file():
        print(f"no spinpairs sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    env = environment(args.seed)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         args.quick, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    attempted = failed = 0
    for name, res in results.items():
        env.update(res["env"])
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = f"{name}." if len(results) > 1 else ""
        print(f"{name}: {res['attempted']} items, {res['failed']} failed "
              f"(failed_frac {res['failed'] / res['attempted']:.4g}), "
              f"{len(res['passes'])} passes, {len(res.get('traced_passes', []))} traced")
        for msg in res["failures"]:
            print(f"  FAILED {msg}")
        for key, val in res["metrics"].items():
            metrics[prefix + key] = {"value": val, "unit": _unit(key)}
            print(f"  {key:40s} {val:>14.6g} {_unit(key)}")
    print("env: " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "args": vars(args), "results": results},
                                 indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
