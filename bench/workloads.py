"""The four benchmark workloads: inputs from a seed, one timed pass, and gates.

Each workload has `setup(seed, quick, expected)`, which builds every input
before timing starts, and `run_pass(state, tracer)`, which certifies every
item once and returns one `Outcome` per item.  A pass never raises: an item
that raises (a `MemoryError` under the address-space limit included) or
fails its gate becomes a failed outcome.

All calls into spinpairs go through module attributes (`pin.lift`, not a
name imported from it), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg as sla

from spinpairs import cli, clifford, families, groups, howe, pin

# acceptance tolerances, unchanged from tests/test_acceptance.py
EQ_TOL = 1e-9
FIBER_TOL = 1e-8
FIBER_GAP = 1e-2

REFERENCE_FILE = Path(__file__).parent / "reference.json"


@dataclass
class Outcome:
    item: str
    ok: bool
    message: str = ""


def _gated(out: List[Outcome], item: str, tracer, body: Callable[[], Optional[str]]):
    """Run one item; `body` returns None when its gate holds, else the reason."""
    if tracer is not None:
        tracer.item += 1
    span = tracer.span("bench.item") if tracer is not None else nullcontext()
    try:
        with span:
            reason = body()
    except Exception as exc:  # noqa: BLE001 - every failure is counted, never fatal
        reason = f"{type(exc).__name__}: {exc}"
    out.append(Outcome(item, reason is None, reason or ""))


@dataclass
class ItemsState:
    """Independent items: (tag, check returning None or the failure reason)."""

    items: List[Tuple[str, Callable[[], Optional[str]]]]


def pass_items(st: ItemsState, tracer=None) -> List[Outcome]:
    out: List[Outcome] = []
    for tag, body in st.items:
        _gated(out, tag, tracer, body)
    return out


# ---------------------------------------------------------------------------
# table: `spinpairs all`
# ---------------------------------------------------------------------------

QUICK_TABLE_ROWS = [("U", [[1, 0], [1, 0]]), ("GL_R", [1, 1]), ("O_real", [[1, 0], [2, 0]])]


@dataclass
class TableState:
    config: cli.RunConfig
    report_sha256: Optional[str]


def setup_table(seed: int, quick: bool, expected: dict,
                report_sha256: Optional[str] = None) -> TableState:
    pairs = [(fam, json.loads(pkey)) for (fam, pkey) in expected]
    if quick:
        pairs = [p for p in pairs if p in QUICK_TABLE_ROWS]
    # the report sorts its rows, so the seed's row order leaves its bytes
    # alone; steps, stages and report seed stay at the `spinpairs all` defaults
    random.Random(seed).shuffle(pairs)
    if report_sha256 is None and not quick:
        report_sha256 = json.loads(REFERENCE_FILE.read_text())["table_report_sha256"]
    return TableState(cli.RunConfig(pairs), report_sha256)


def pass_table(st: TableState, tracer=None) -> List[Outcome]:
    try:
        report = cli.run(st.config)
        problems = cli.compare_with_expected(report)
        with tracer.span("cli.report_json") if tracer is not None else nullcontext():
            # byte for byte what `spinpairs all --out` writes, less the newline
            text = json.dumps(report, indent=2, sort_keys=True)
    except Exception as exc:  # noqa: BLE001
        return [Outcome("table", False, f"{type(exc).__name__}: {exc}")]
    out = []
    for rec in report["pairs"]:
        tag = f"{rec['family']}{rec['params']}"
        bad = [p for p in problems if p.startswith(tag + ":")]
        out.append(Outcome(tag, not bad, "; ".join(bad)))
    out += [Outcome("row", False, "row missing from the report")] * (
        len(st.config.pairs) - len(report["pairs"]))
    if st.report_sha256 is not None:
        got = hashlib.sha256(text.encode()).hexdigest()
        same = got == st.report_sha256
        out.append(Outcome("report bytes", same,
                           "" if same else f"sha256 {got} != reference {st.report_sha256}"))
    return out


# ---------------------------------------------------------------------------
# covers: path-lifted extension classes
# ---------------------------------------------------------------------------

COVER_STEPS = 512
QUICK_COVER_STEPS = 64
BLOCK_SUM_COPIES = (1, 2, 3, 4)


@dataclass
class CoversState:
    labels: ItemsState
    block_sums: Dict[int, object]
    steps: int


def _label(spec, side: str, label: str, steps: int) -> Optional[str]:
    got = pin.classify_extension(spec, side, steps=steps).label
    return None if got == label else f"label {got} != expected {label}"


def setup_covers(seed: int, quick: bool, expected: dict) -> CoversState:
    steps = QUICK_COVER_STEPS if quick else COVER_STEPS
    items = []
    for (fam, pkey), row in expected.items():
        if row["ext_G"] is None and row["ext_Gp"] is None:
            continue
        spec = families.build_pair(fam, json.loads(pkey))
        if not (spec.G.loops or spec.Gp.loops):
            continue
        for side, label in (("G", row["ext_G"]), ("Gp", row["ext_Gp"])):
            items.append((f"{fam}{pkey} {side}", partial(_label, spec, side, label, steps)))
    if quick:
        items = items[:2]
    random.Random(seed).shuffle(items)
    copies = BLOCK_SUM_COPIES[:2] if quick else BLOCK_SUM_COPIES
    block_sums = {m: families.build_pair("U", ((1, 0), (m, 0))) for m in copies}
    return CoversState(ItemsState(items), block_sums, steps)


def pass_covers(st: CoversState, tracer=None) -> List[Outcome]:
    out = pass_items(st.labels, tracer)
    signs: Dict[int, int] = {}
    for m, spec in st.block_sums.items():
        def body(m=m, spec=spec):
            ext = pin.classify_extension(spec, "G", steps=st.steps)
            if len(ext.loop_signs) != 1:
                return f"expected one loop, got {sorted(ext.loop_signs)}"
            signs[m] = next(iter(ext.loop_signs.values()))
            return None
        _gated(out, f"U((1,0),({m},0)) G", tracer, body)

    def multiplicative():
        # criterion 5: signs multiply across orthogonal block sums
        for m1 in signs:
            for m2 in signs:
                if m1 + m2 in signs and signs[m1 + m2] != signs[m1] * signs[m2]:
                    return f"block-sum signs do not multiply: {signs}"
        return None if len(signs) == len(st.block_sums) else "a block-sum sign is missing"
    _gated(out, "block-sum multiplicativity", tracer, multiplicative)
    return out


# ---------------------------------------------------------------------------
# roundtrip: lift -> project -> relift, and Chevalley intertwining
# ---------------------------------------------------------------------------

ROUNDTRIP_SIGNATURES = {(2, 2): 24, (3, 3): 12, (4, 4): 8}
CHEVALLEY_ITEMS = 4
QUICK_ROUNDTRIP = {(2, 2): 2, (4, 4): 1}


# the input generators of tests/test_acceptance.py, copied so that the
# benchmark's inputs stay fixed when the tests change
def random_isometry(space, rng, reflect=True) -> groups.OrthogonalMap:
    """exp of a random form-antisymmetric matrix, times a coordinate reflection half the time."""
    n = space.dim
    B = np.diag(np.array(space.norms, dtype=float))
    A = rng.normal(size=(n, n))
    X = A - B @ A.T @ B
    g = sla.expm(0.7 * X / max(1.0, np.abs(X).max()))
    if reflect and rng.random() < 0.5:
        refl = np.eye(n)
        k = int(rng.integers(n))
        refl[k, k] = -1.0
        g = g @ refl
    return groups.OrthogonalMap(space, g)


def random_float(space, rng, nterms: int) -> clifford.CliffordElement:
    terms = {int(rng.integers(1 << space.dim)): complex(rng.normal(), rng.normal())
             for _ in range(nterms)}
    return clifford.CliffordElement(space, terms, exact=False)


def setup_roundtrip(seed: int, quick: bool, expected: dict) -> ItemsState:
    rng = np.random.default_rng(seed)
    items = []
    for pq, count in (QUICK_ROUNDTRIP if quick else ROUNDTRIP_SIGNATURES).items():
        space = clifford.real_space(*pq)
        items += [(f"roundtrip {pq} #{i}", partial(_roundtrip, random_isometry(space, rng)))
                  for i in range(count)]
    space = clifford.real_space(4, 4)
    for i in range(1 if quick else CHEVALLEY_ITEMS):
        g = random_isometry(space, rng, reflect=False)
        items.append((f"chevalley (4, 4) #{i}",
                      partial(_chevalley, g, random_float(space, rng, nterms=5))))
    return ItemsState(items)


def _roundtrip(g: groups.OrthogonalMap) -> Optional[str]:
    # criterion 2: project(lift(g)) = g, and the relift lands in the same
    # two-element fiber
    x = pin.lift(g)
    p = pin.project(x)
    if not np.allclose(p.matrix, g.matrix, atol=EQ_TOL):
        return "project(lift(g)) != g"
    y = pin.lift(p)
    same = x.value.distance(y.value)
    opp = x.value.distance((-y).value)
    if min(same, opp) >= FIBER_TOL:
        return f"relift escaped the fiber ({min(same, opp):.3g})"
    if max(same, opp) <= FIBER_GAP:
        return "fiber elements do not differ by the sign"
    return None


def _chevalley(g: groups.OrthogonalMap, w: clifford.CliffordElement) -> Optional[str]:
    # criterion 9: T intertwines the exterior action of project(c) with
    # conjugation by the even lift c
    c = pin.lift(g)
    if c.parity != 0:
        return "lift of a rotation is odd"
    wext = clifford.chevalley_T_inv(w)
    lhs = clifford.chevalley_T(clifford.exterior_apply_map(pin.project(c).matrix, wext))
    rhs = c.value * w * c.inverse_value()
    return None if lhs.isclose(rhs, EQ_TOL) else "Chevalley map does not intertwine"


# ---------------------------------------------------------------------------
# invariants: generator theorems and transfer into End(S)
# ---------------------------------------------------------------------------

# a slice of the criterion-6 grid, with two N = 12 models
GENERATION_MODELS = [
    ("GLModel", (2, 3, 3)), ("SpModel", (2, 3)), ("OModel", (3, 3)),
    ("GLModel", (2, 2, 2)), ("SpModel", (1, 3)), ("OModel", (2, 3)),
]
QUICK_GENERATION_MODELS = [("GLModel", (1, 1, 1)), ("OModel", (2, 2))]

# the criterion-7 families
TRANSFER_FAMILIES = [
    ("GL_R", (1, 1)), ("GL_R", (2, 1)), ("U", ((1, 0), (1, 0))),
    ("U", ((1, 1), (1, 0))), ("Sp_R", (1, 1)), ("Sp_H", ((1, 0), (1, 0))),
    ("GL_C", (1, 1)), ("GL_H", (1, 1)), ("Sp_C_real", (1, 1)),
    ("GL_C_complex", (1, 1)), ("Sp_C", (1, 1)),
]
QUICK_TRANSFER_FAMILIES = [("GL_R", (1, 1))]


def setup_invariants(seed: int, quick: bool, expected: dict) -> ItemsState:
    models = QUICK_GENERATION_MODELS if quick else GENERATION_MODELS
    items = [(f"{cls}{args}", partial(_generation, getattr(howe, cls)(*args)))
             for cls, args in models]
    items += [(f"{fam}{params}", partial(_transfer, families.build_pair(fam, params)))
              for fam, params in (QUICK_TRANSFER_FAMILIES if quick else TRANSFER_FAMILIES)]
    random.Random(seed).shuffle(items)
    return ItemsState(items)


def _generation(model) -> Optional[str]:
    # criterion 6: degree-2 generators span every invariant degree exactly
    report = howe.verify_generation(model)
    bad = {d: gi for d, gi in report.items() if gi[0] != gi[1]}
    return None if not bad else f"gen_dim != inv_dim at degrees {bad}"


def _transfer(spec) -> Optional[str]:
    # criterion 7: transported invariants span the commutant, both sides
    cpx = groups.complexify(spec)
    spn = howe.build_spinors(cpx.space_c)
    for side in ("G", "Gp"):
        inv = howe.invariants(spec, side, cpx)
        ops = howe.transfer_invariants(inv, spn)
        comm = howe.commutant(howe.side_operators(spec, spn, cpx, side), spn.dim_s)
        if not howe.subspace_equal(ops, comm):
            return f"side {side}: transfer image != commutant"
    return None


# ---------------------------------------------------------------------------

@dataclass
class Workload:
    setup: Callable
    run_pass: Callable


# why each was chosen is in BENCHMARK.json and NOTES.md
WORKLOADS: Dict[str, Workload] = {
    "table": Workload(setup_table, pass_table),
    "covers": Workload(setup_covers, pass_covers),
    "roundtrip": Workload(setup_roundtrip, pass_items),
    "invariants": Workload(setup_invariants, pass_items),
}
