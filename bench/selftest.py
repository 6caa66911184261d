"""Self-tests of the benchmark itself; exits nonzero if any fails.

    python3 bench/selftest.py

1. quick mode runs every workload once at minimal size, untraced and traced;
2. every metric name matches [A-Za-z0-9_.-]+ and BENCHMARK.json lists the
   metrics the runs print;
3. a wrong expected label (covers) or reference digest (table) trips the
   gate and raises failed_frac;
4. after a traced pass every wrapped name is bound to its original again.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def quick_run(trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "all",
                           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
    return result["metrics"]


def test_quick_and_names():
    import run
    import tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == tracer.PER_LAYER_METRICS
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        metrics = quick_run(trace)
        for name in metrics:
            assert NAME.fullmatch(name), name
        for wl in run.WORKLOADS:
            got = {k.split(".", 1)[1] for k in metrics if k.startswith(wl + ".")}
            assert got == {m["name"] for m in listed}, (wl, got ^ {m["name"] for m in listed})


def failed_frac(outcomes) -> float:
    return sum(not o.ok for o in outcomes) / len(outcomes)


def test_gates_trip():
    import workloads
    from spinpairs import cli

    expected = cli.load_expected_table()
    good = workloads.setup_covers(0, True, expected)
    assert failed_frac(workloads.pass_covers(good)) == 0
    wrong = {k: dict(v) for k, v in expected.items()}
    for row in wrong.values():
        if row["ext_G"] is not None:
            row["ext_G"] = row["ext_Gp"] = "Lambda(9,9)"
    assert failed_frac(workloads.pass_covers(workloads.setup_covers(0, True, wrong))) > 0

    bad_digest = workloads.setup_table(0, True, expected, report_sha256="0" * 64)
    outcomes = workloads.pass_table(bad_digest)
    assert [o.item for o in outcomes if not o.ok] == ["report bytes"], outcomes
    assert failed_frac(outcomes) > 0


def test_tracer_restores_originals():
    import tracer
    import workloads
    from spinpairs import cli

    before = tracer.original_bindings()
    tr = tracer.Tracer()
    tr.begin_phase("pass")
    with tr.installed():
        assert tracer.original_bindings() != before
        for wl in workloads.WORKLOADS.values():
            wl.run_pass(wl.setup(0, True, cli.load_expected_table()), tr)
    tr.end_phase()
    assert tracer.original_bindings() == before
    stats = dict(tr.phase_stats())["pass"]
    assert stats["pin.lift.calls"] > 0 and stats["howe.nullspace.calls"] > 0, stats


def main() -> int:
    sys.path.insert(0, str(BENCH))
    import worker
    worker.import_package()
    tests = [test_gates_trip, test_tracer_restores_originals, test_quick_and_names]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
