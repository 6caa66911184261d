"""One workload in one process: set up, run timed passes, print a JSON result.

`run.py` starts this file as a child process, under an address-space limit,
so that peak memory is per workload.  The last line of its stdout is one
JSON object; everything before it is free text.

    python3 bench/worker.py --workload covers --seed 3 --seconds 28 --trace 0
"""

import time

# set-up time counts from here, before any import of numpy or spinpairs
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import spinpairs from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import spinpairs
    if Path(spinpairs.__file__).resolve().parent != SRC / "spinpairs":
        raise ImportError(f"spinpairs imported from {spinpairs.__file__}, not {SRC}")


def blas_info() -> dict:
    """BLAS library from numpy's build config; thread count from the loaded library."""
    import ctypes

    import numpy as np

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": cfg.get("name"), "version": cfg.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment() -> dict:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_info()}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_package()
    from spinpairs import cli
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tr = tracing.Tracer() if args.trace else None
    expected = cli.load_expected_table()
    if tr is not None:
        # input generation is traced so set-up calls (build_pair) are counted
        tr.begin_phase("setup")
        with tr.installed():
            state = wl.setup(args.seed, args.quick, expected)
        tr.end_phase()
    else:
        state = wl.setup(args.seed, args.quick, expected)
    setup_s = time.perf_counter() - T_START
    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    # untraced passes; with --trace 1 they alternate with traced ones, so the
    # difference of their medians is the tracing overhead
    passes, traced = [], []
    attempted = failed = 0
    failures = []
    t_begin = time.perf_counter()
    while True:
        use_trace = tr is not None and len(traced) < len(passes)
        if use_trace:
            tr.begin_phase("pass")
            tr.install()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            outcomes = wl.run_pass(state, tr if use_trace else None)
        finally:
            w1, c1 = time.perf_counter(), time.process_time()
            if use_trace:
                tr.uninstall()
                tr.end_phase()
        (traced if use_trace else passes).append({"wall_s": w1 - w0, "cpu_s": c1 - c0})
        attempted += len(outcomes)
        for o in outcomes:
            if not o.ok:
                failed += 1
                if len(failures) < 20:
                    failures.append(f"{o.item}: {o.message}")
        if tr is not None and not traced:
            continue
        # start another pass only if one as long as the longest so far still fits
        longest = max(p["wall_s"] for p in passes + traced)
        if args.quick or time.perf_counter() - t_begin + longest > args.seconds:
            break

    result.update({
        "passes": passes,
        "pass_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
        "env": environment(),
    })
    if tr is not None:
        result["traced_passes"] = traced
        result["layers"] = tracing.layer_metrics(tr.phase_stats(), passes, traced)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tr.write(out / f"spans-{args.workload}-seed{args.seed}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
