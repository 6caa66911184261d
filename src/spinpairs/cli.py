"""Command-line runner and machine-readable reports.

Subcommands run the three verification stages per dual pair -- lifted
commutator verdicts, path-lifted extension classes, and the spinorial
double-commutant check -- and compare the outcomes against the expected
table shipped as package data.  Exit code 0 means every computed verdict
matches the table, 1 flags a mismatch, and 2 a configuration error or a
single-pair command whose stage was skipped.
"""

from __future__ import annotations

import ast
import importlib.resources
import json
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

import click

from . import __version__
from .families import build_pair, normalize_params
from .groups import ClassificationError, DimensionCapError, UnsupportedFamilyError
from .howe import howe_check, invariants
from .pin import DEFAULT_PATH_STEPS, all_commute, classify_extension, commutator_pairing

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2


@dataclass
class RunConfig:
    pairs: List[Tuple[str, tuple]]
    stages: Tuple[str, ...] = ("commute", "cover", "howe")


def load_expected_table() -> dict:
    data = importlib.resources.files("spinpairs").joinpath("expected_results.json")
    rows = json.loads(data.read_text())["rows"]
    return {(r["family"], json.dumps(r["params"])): r for r in rows}


def _plain(p):
    if isinstance(p, tuple):
        return [_plain(x) for x in p]
    return p


def run_pair(family: str, params, config: RunConfig) -> dict:
    """One pair record; failures become structured errors, never aborts."""
    record: dict = {"family": family, "params": _plain(params)}
    try:
        record["params"] = _plain(normalize_params(family, params))
        spec = build_pair(family, params)
    except ClassificationError as exc:
        record["error"] = {"stage": "build", "kind": "rejected by classification side-condition",
                           "message": str(exc)}
        return record
    p, q = spec.space.signature
    record["signature"] = [p, q]
    if "commute" in config.stages:
        try:
            recs = commutator_pairing(spec)
            record["commutators"] = [{"gen_pair": r["pair"], "sign": r["sign"]} for r in recs]
            record["commute_all_plus"] = all_commute(recs)
        except Exception as exc:  # noqa: BLE001 - structured per-pair reporting
            record["error"] = {"stage": "commute", "kind": type(exc).__name__, "message": str(exc)}
            return record
    # the stages a family's scope or the duality cap may skip, with their record keys
    skippable = {
        "cover": ("extension", lambda: {
            side: classify_extension(spec, side).to_json() for side in ("G", "Gp")}),
        "howe": ("howe", lambda: howe_check(spec).to_json()),
    }
    for stage, (key, compute) in skippable.items():
        if stage not in config.stages:
            continue
        try:
            record[key] = compute()
        except (UnsupportedFamilyError, DimensionCapError) as exc:
            record[key] = None
            record[f"{key}_skipped"] = str(exc)
        except Exception as exc:  # noqa: BLE001
            record["error"] = {"stage": stage, "kind": type(exc).__name__, "message": str(exc)}
            return record
    return record


def run(config: RunConfig) -> dict:
    records = [run_pair(f, p, config) for f, p in config.pairs]
    records.sort(key=lambda r: (r["family"], json.dumps(r["params"])))
    # the frozen "seed", "backend" and "steps" fields keep the report schema and its bytes
    return {
        "version": __version__,
        "seed": 0,
        "backend": "float",
        "steps": DEFAULT_PATH_STEPS,
        "pairs": records,
    }


def compare_with_expected(report: dict) -> List[str]:
    """Mismatch descriptions against the shipped expectation table."""
    table = load_expected_table()
    problems = []
    for rec in report["pairs"]:
        key = (rec["family"], json.dumps(rec["params"]))
        row = table.get(key)
        tag = f"{rec['family']}{rec['params']}"
        if row is None:
            continue
        if "error" in rec:
            problems.append(f"{tag}: failed at stage {rec['error']['stage']}: "
                            f"{rec['error']['message']}")
            continue
        if "commute_all_plus" in rec and rec["commute_all_plus"] != row["commute"]:
            problems.append(f"{tag}: commutation verdict {rec['commute_all_plus']} "
                            f"!= expected {row['commute']}")
        if "extension" in rec:
            for side, want in (("G", row["ext_G"]), ("Gp", row["ext_Gp"])):
                if want is None:
                    continue
                if rec["extension"] is None:
                    problems.append(f"{tag}: cover classification skipped but expected "
                                    f"{side} {want}: {rec.get('extension_skipped')}")
                elif rec["extension"][side]["label"] != want:
                    problems.append(f"{tag}: {side} cover {rec['extension'][side]['label']} "
                                    f"!= expected {want}")
        if "howe" in rec and row["howe"] is not None:
            if rec["howe"] is None:
                problems.append(f"{tag}: duality check skipped but expected "
                                f"{row['howe']}: {rec.get('howe_skipped')}")
            else:
                got = rec["howe"]["equal"] and rec["howe"]["mult_free"]
                if got != row["howe"]:
                    problems.append(f"{tag}: duality verdict {got} != expected {row['howe']}")
    return problems


# ---------------------------------------------------------------------------
# click front end
# ---------------------------------------------------------------------------

def _parse_params(family: str, text: str):
    try:
        raw = ast.literal_eval(f"({text})")
        return normalize_params(family, raw)
    except (ValueError, SyntaxError, TypeError) as exc:
        raise click.UsageError(f"cannot parse --params {text!r}: {exc}")


def _emit(report: dict, out: Optional[str], as_json: bool, problems: List[str]):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    if as_json:
        click.echo(text)
    else:
        for rec in report["pairs"]:
            tag = f"{rec['family']}{rec['params']}"
            if "error" in rec:
                click.echo(f"{tag}: ERROR {rec['error']['kind']}: {rec['error']['message']}")
                continue
            bits = [f"signature={tuple(rec['signature'])}"]
            if "commute_all_plus" in rec:
                bits.append(f"commute={'+1 all' if rec['commute_all_plus'] else 'HAS -1'}")
            if rec.get("extension"):
                bits.append(f"cover G={rec['extension']['G']['label']} "
                            f"G'={rec['extension']['Gp']['label']}")
            elif "extension_skipped" in rec:
                bits.append(f"cover=skipped ({rec['extension_skipped']})")
            if rec.get("howe"):
                h = rec["howe"]
                bits.append(f"howe equal={h['equal']} mult_free={h['mult_free']} "
                            f"isotypic={h['isotypic_count']}")
            elif "howe_skipped" in rec:
                bits.append(f"howe=skipped ({rec['howe_skipped']})")
            click.echo(f"{tag}: " + "  ".join(bits))
    for p in problems:
        click.echo(f"MISMATCH: {p}", err=True)


_common = [
    click.option("--family", required=True, help="family tag, e.g. U, Sp_R, GL_H"),
    click.option("--params", required=True, help="e.g. '(1,0),(1,1)' or '1,1'"),
    click.option("--out", type=click.Path(), default=None, help="write the JSON report here"),
    click.option("--json", "as_json", is_flag=True, help="print the JSON report"),
]


def _with_common(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


def _single_pair_command(stages: Tuple[str, ...]):
    def runner(family, params, out, as_json):
        try:
            parsed = _parse_params(family, params)
            report = run(RunConfig([(family, parsed)], stages=stages))
        except (ClassificationError, click.UsageError) as exc:
            click.echo(f"configuration error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        problems = compare_with_expected(report)
        _emit(report, out, as_json, problems)
        errors = [r["error"] for r in report["pairs"] if "error" in r]
        # a skipped stage certified nothing, like an input over a size cap
        skipped = any("extension_skipped" in r or "howe_skipped" in r for r in report["pairs"])
        if skipped or any(e["stage"] == "build" or e["kind"] == DimensionCapError.__name__
                          for e in errors):
            sys.exit(EXIT_CONFIG)
        if errors:
            sys.exit(EXIT_MISMATCH)
        sys.exit(EXIT_MISMATCH if problems else EXIT_OK)

    return runner


@click.group()
@click.version_option(__version__)
def main():
    """Verify dual-pair lifts, double covers, and spinorial duality at small rank."""


main.command("verify-commute")(_with_common(_single_pair_command(("commute",))))
main.command("classify-cover")(_with_common(_single_pair_command(("cover",))))
main.command("howe-check")(_with_common(_single_pair_command(("howe",))))


@main.command("invariants")
@click.option("--family", required=True)
@click.option("--params", required=True)
@click.option("--side", type=click.Choice(["G", "Gp"]), default="G", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def invariants_cmd(family, params, side, as_json):
    """Per-degree invariant dimensions of the exterior algebra under one member."""
    try:
        parsed = _parse_params(family, params)
        spec = build_pair(family, parsed)
        inv = invariants(spec, side)
    except (ClassificationError, click.UsageError, DimensionCapError) as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    dims = {str(d): n for d, n in sorted(inv.dims.items())}
    if as_json:
        click.echo(json.dumps({"family": family, "params": _plain(parsed),
                               "side": side, "dims": dims}, indent=2, sort_keys=True))
    else:
        click.echo(f"{family}{_plain(parsed)} side {side}: " +
                   " ".join(f"d{d}:{n}" for d, n in dims.items()))
    sys.exit(EXIT_OK)


@main.command("all")
@click.option("--out", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True)
def all_cmd(out, as_json):
    """Run every expected-table row and gate on the theorem predictions."""
    table = load_expected_table()
    pairs = [(fam, json.loads(pkey)) for (fam, pkey) in table]
    report = run(RunConfig(pairs))
    problems = compare_with_expected(report)
    _emit(report, out, as_json, problems)
    if problems:
        sys.exit(EXIT_MISMATCH)
    click.echo(f"{len(report['pairs'])} pairs verified against the expected table", err=True)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
