"""CLI runner: reports, schema, determinism, expected-table gating."""

import hashlib
import json
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from spinpairs import cli
from spinpairs.families import FAMILY_BUILDERS, PAIR_PARAM_FAMILIES
from spinpairs.cli import (EXIT_CONFIG, EXIT_MISMATCH, EXIT_OK, RunConfig,
                           compare_with_expected, load_expected_table, main, run)


def test_empty_pair_list_gives_empty_report():
    report = run(RunConfig([]))
    assert report["pairs"] == []
    assert compare_with_expected(report) == []


def test_single_pair_end_to_end():
    report = run(RunConfig([("U", ((1, 0), (1, 0)))]))
    rec = report["pairs"][0]
    assert rec["signature"] == [2, 0]
    assert rec["commute_all_plus"] is True
    assert rec["extension"]["G"]["label"] == "DetHalf"
    assert rec["extension"]["G"]["loops"] == {"U(1)[G+]": -1}
    assert rec["howe"]["equal"] is True
    assert rec["howe"]["mult_free"] is True
    assert compare_with_expected(report) == []


def test_invalid_params_structured_error():
    # 2.5 must not be read as the valid size 2
    for params in [(1, 2), (2.5, 2)]:
        report = run(RunConfig([("O_C", params)], stages=()))
        rec = report["pairs"][0]
        assert rec["error"]["stage"] == "build"
        assert rec["error"]["kind"] == "rejected by classification side-condition"


@pytest.mark.parametrize("family,params", [("U", (1, 1)), ("GL_R", (1, 2, 3)), ("GL_R", 5)])
def test_wrongly_shaped_params_are_build_errors(family, params):
    # a malformed row is recorded, and the rest of the run goes on
    report = run(RunConfig([(family, params), ("Sp_R", (1, 1))], stages=()))
    stages = {r["family"]: r.get("error", {}).get("stage") for r in report["pairs"]}
    assert stages == {family: "build", "Sp_R": None}


def test_oversized_pairs_are_build_errors():
    # 8 x 8 gives every family dim E >= 64, above the 62 generators a blade mask carries
    pairs = [(f, ((8, 0), (8, 0)) if f in PAIR_PARAM_FAMILIES else (8, 8)) for f in FAMILY_BUILDERS]
    report = run(RunConfig(pairs, stages=()))
    assert len(report["pairs"]) == len(pairs)
    for rec in report["pairs"]:
        assert rec["error"]["stage"] == "build", rec
        assert "ambient dimension" in rec["error"]["message"]


def test_cli_rejects_oversized_pairs():
    runner = CliRunner()
    for cmd in (["verify-commute", "--family", "GL_R", "--params", "8,8"],
                ["invariants", "--family", "Sp_C", "--params", "6,6"]):
        res = runner.invoke(main, cmd)
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "ambient dimension" in res.output


def test_cli_caps_the_commutator_cost():
    # dim E 60 passes the build, but its lifted probes carry up to 4096 terms, and
    # x y x^-1 y^-1 would take about 1.7e9 term pairs: rejected before any product
    start = time.perf_counter()
    res = CliRunner().invoke(main, ["verify-commute", "--family", "GL_R", "--params", "5,6"])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert "term pairs, above the cap of 16777216" in res.output
    assert time.perf_counter() - start < 30.0


def test_report_schema_keys():
    report = run(RunConfig([("GL_R", (1, 1))]))
    assert set(report) == {"version", "seed", "backend", "steps", "pairs"}
    rec = report["pairs"][0]
    assert {"family", "params", "signature", "commutators",
            "commute_all_plus", "extension", "howe"} <= set(rec)
    for c in rec["commutators"]:
        assert set(c) == {"gen_pair", "sign"}


def test_reports_byte_identical_across_runs():
    cfg = RunConfig([("U", ((1, 1), (1, 0))), ("Sp_R", (1, 1))])
    a = json.dumps(run(cfg), indent=2, sort_keys=True)
    b = json.dumps(run(cfg), indent=2, sort_keys=True)
    assert a == b


def test_cli_verify_commute_exit_codes():
    runner = CliRunner()
    res = runner.invoke(main, ["verify-commute", "--family", "U",
                               "--params", "(1,0),(1,0)"])
    assert res.exit_code == EXIT_OK
    res = runner.invoke(main, ["verify-commute", "--family", "O_C", "--params", "1,2"])
    assert res.exit_code == EXIT_CONFIG
    res = runner.invoke(main, ["verify-commute", "--family", "wat", "--params", "1,1"])
    assert res.exit_code == EXIT_CONFIG
    # wrong arity for a pair-signature family
    res = runner.invoke(main, ["verify-commute", "--family", "U", "--params", "1,1"])
    assert res.exit_code == EXIT_CONFIG


def test_cli_pair_outside_expected_table_succeeds():
    runner = CliRunner()
    res = runner.invoke(main, ["verify-commute", "--family", "U",
                               "--params", "(2,1),(1,1)"])
    assert res.exit_code == EXIT_OK


def test_cli_classify_cover_json(tmp_path):
    runner = CliRunner()
    out = tmp_path / "rep.json"
    res = runner.invoke(main, ["classify-cover", "--family", "U",
                               "--params", "(1,1),(1,0)", "--json", "--out", str(out)])
    assert res.exit_code == EXIT_OK
    blob = json.loads(out.read_text())
    assert blob["pairs"][0]["extension"]["G"]["label"] == "Lambda(1,1)"


def test_cli_howe_check():
    runner = CliRunner()
    res = runner.invoke(main, ["howe-check", "--family", "Sp_R", "--params", "1,1"])
    assert res.exit_code == EXIT_OK
    assert "equal=True" in res.output


def test_cli_invariants():
    runner = CliRunner()
    res = runner.invoke(main, ["invariants", "--family", "Sp_R", "--params", "1,1",
                               "--side", "G", "--json"])
    assert res.exit_code == EXIT_OK
    blob = json.loads(res.output)
    assert blob["dims"] == {"0": 1, "1": 0, "2": 3, "3": 0, "4": 1}


def test_expected_table_well_formed():
    table = load_expected_table()
    assert len(table) >= 15
    for (family, _), row in table.items():
        assert isinstance(row["commute"], bool)
        assert "claim" in row


def test_mismatch_detection():
    report = run(RunConfig([("U", ((1, 0), (1, 0)))]))
    report["pairs"][0]["commute_all_plus"] = False
    problems = compare_with_expected(report)
    assert problems and "commutation verdict" in problems[0]


@pytest.mark.parametrize("steps", ["1", "0", "-5"])
def test_cli_rejects_too_few_path_steps(steps):
    # one step from 0 to 2pi always closes up and would report Trivial
    runner = CliRunner()
    for cmd in (["classify-cover", "--family", "U", "--params", "(1,0),(2,0)"], ["all"]):
        res = runner.invoke(main, cmd + ["--steps", steps])
        assert res.exit_code == EXIT_CONFIG
        assert "--steps" in res.output


def test_cli_all_json_stdout_is_json(monkeypatch):
    table = load_expected_table()
    key = ("U", json.dumps([[1, 0], [1, 0]]))
    monkeypatch.setattr(cli, "load_expected_table", lambda: {key: table[key]})
    res = CliRunner().invoke(main, ["all", "--json"])
    assert res.exit_code == EXIT_OK
    report = json.loads(res.stdout)
    assert [r["family"] for r in report["pairs"]] == ["U"]
    assert "1 pairs verified" in res.stderr


@pytest.mark.parametrize("family,params", [("GL_R", "1.5,1"), ("GL_R", "True,1"),
                                           ("U", "(1.9,0),(1,0)")])
def test_cli_rejects_non_integer_params(family, params):
    # int() would run GL_R(1,1) or U((1,0),(1,0)) instead and exit 0
    res = CliRunner().invoke(main, ["verify-commute", "--family", family, "--params", params])
    assert res.exit_code == EXIT_CONFIG
    assert "integers" in res.output


@pytest.mark.parametrize("cmd", [["verify-commute", "--family", "U", "--params", "(1,0),(1,0)"],
                                 ["classify-cover", "--family", "U", "--params", "(1,0),(1,0)"],
                                 ["howe-check", "--family", "U", "--params", "(1,0),(1,0)"],
                                 ["all"]])
def test_cli_has_no_backend_or_seed_option(cmd):
    runner = CliRunner()
    usage = runner.invoke(main, [cmd[0], "--help"]).output
    assert "--steps" in usage
    assert "--backend" not in usage and "--seed" not in usage and "--timings" not in usage
    for opt in (["--backend", "float"], ["--seed", "0"], ["--timings"]):
        assert runner.invoke(main, cmd + opt).exit_code == EXIT_CONFIG


def test_table_report_matches_bench_reference():
    # the byte-identity promise of `spinpairs all --out`, pinned by the benchmark
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    want = json.loads(reference.read_text())["table_report_sha256"]
    pairs = [(fam, json.loads(pkey)) for (fam, pkey) in load_expected_table()]
    text = json.dumps(run(RunConfig(pairs)), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == want
