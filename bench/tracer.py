"""Span tracer that wraps public spinpairs functions from outside the package.

`Tracer.install()` replaces each target function with a timing wrapper and
rebinds every name under which a spinpairs module holds it (for example
`spinpairs.howe.lift` as well as `spinpairs.pin.lift`), so calls made inside
the package are traced too.  `Tracer.uninstall()` puts every original back.

Spans (name, start, end, parent, item) are kept in flat arrays in memory and
written out once, when the run ends.  Self time is derived from them: a
span's duration minus the durations of its direct children.  No traced
function calls itself, so summing durations per name never counts a
stretch of time twice.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (metric prefix, module, attribute path); a dotted path names a method
TARGETS: List[Tuple[str, str, str]] = [
    ("families.build_pair", "spinpairs.families", "build_pair"),
    ("clifford.mul", "spinpairs.clifford", "CliffordElement.__mul__"),
    ("clifford.distance", "spinpairs.clifford", "_BladeMap.distance"),
    ("pin.lift", "spinpairs.pin", "lift"),
    ("pin.project", "spinpairs.pin", "project"),
    ("pin.loop_lift_sign", "spinpairs.pin", "loop_lift_sign"),
    ("pin.classify_extension", "spinpairs.pin", "classify_extension"),
    ("pin.commutator_pairing", "spinpairs.pin", "commutator_pairing"),
    ("spinor.build_spinors", "spinpairs.spinor", "build_spinors"),
    ("spinor.d_pi", "spinpairs.spinor", "d_pi"),
    ("spinor.pi_rep", "spinpairs.spinor", "pi_rep"),
    ("spinor.gamma_tilde", "spinpairs.spinor", "gamma_tilde"),
    ("howe.howe_check", "spinpairs.howe", "howe_check"),
    ("howe.generated_algebra", "spinpairs.howe", "generated_algebra"),
    ("howe.commutant", "spinpairs.howe", "commutant"),
    ("howe.subspace_equal", "spinpairs.howe", "subspace_equal"),
    ("howe.nullspace", "spinpairs.howe", "nullspace"),
    ("howe.invariant_space", "spinpairs.howe", "invariant_space"),
    ("howe.exterior_derivation_matrix", "spinpairs.howe", "exterior_derivation_matrix"),
    ("howe.verify_generation", "spinpairs.howe", "verify_generation"),
    ("howe.transfer_invariants", "spinpairs.howe", "transfer_invariants"),
    ("cli.run_pair", "spinpairs.cli", "run_pair"),
    ("cli.compare_with_expected", "spinpairs.cli", "compare_with_expected"),
]

# spans the benchmark opens itself, around work it does between calls
BENCH_SPANS = ["cli.report_json", "bench.item"]


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "spinpairs" or n.startswith("spinpairs."))]


def original_bindings() -> Dict[Tuple[int, str], object]:
    """(id of module or class, name) -> object, for every binding of a target."""
    out = {}
    modules = _package_modules()
    for _, module, path in TARGETS:
        owner, attr = _resolve(module, path)
        fn = owner.__dict__[attr]
        out[(id(owner), attr)] = fn
        for mod in modules:
            for name, val in vars(mod).items():
                if val is fn:
                    out[(id(mod), name)] = val
    return out


# -- counters fed from call arguments -----------------------------------------

def _count_mul(tr: "Tracer", args, kwargs):
    a, b = args[0], args[1]
    if hasattr(b, "terms"):
        tr.counters["clifford.mul.term_pairs"] += len(a.terms) * len(b.terms)


def _count_nullspace(tr: "Tracer", args, kwargs):
    rows, cols = np.shape(args[0] if args else kwargs["A"])
    tr.counters["howe.nullspace.in_cells"] += rows * cols
    # full_matrices=True allocates a rows x rows complex128 U factor
    tr.counters["howe.nullspace.u_bytes_max"] = max(
        tr.counters["howe.nullspace.u_bytes_max"], rows * rows * 16)


def _count_loop(tr: "Tracer", args, kwargs):
    from spinpairs.pin import DEFAULT_PATH_STEPS
    steps = kwargs.get("steps", args[1] if len(args) > 1 else DEFAULT_PATH_STEPS)
    # one attempt at the requested resolution lifts theta = 0 and `steps` points
    tr.counters["pin.loop_lift_sign.requested_lifts"] += steps + 1


def _next_row(tr: "Tracer", args, kwargs):
    tr.item += 1


HOOKS: Dict[str, Callable] = {
    "clifford.mul": _count_mul,
    "howe.nullspace": _count_nullspace,
    "pin.loop_lift_sign": _count_loop,
    "cli.run_pair": _next_row,
}

COUNTERS = ["clifford.mul.term_pairs", "howe.nullspace.in_cells",
            "howe.nullspace.u_bytes_max", "pin.loop_lift_sign.requested_lifts"]


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS] + BENCH_SPANS
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.items = array("i")
        self.item = 0
        self._stack: List[int] = []
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._phases: List[Tuple[str, int, int, Dict[str, int]]] = []
        self._phase_open: Optional[Tuple[str, int, Dict[str, int]]] = None
        self._rebound: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.items.append(self.item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._ids[name])
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._ids[name]
        hook = HOOKS.get(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(tr, args, kwargs)
            idx = tr._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tr._close(idx)

        return traced

    # -- installing and removing the wrappers --------------------------------

    def install(self):
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for name, module, path in TARGETS:
            owner, attr = _resolve(module, path)
            fn = owner.__dict__[attr]
            wrapper = self._wrap(name, fn)
            self._rebound.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for alias, val in list(vars(mod).items()):
                    if val is fn:
                        self._rebound.append((mod, alias, fn))
                        setattr(mod, alias, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._rebound):
            setattr(owner, attr, fn)
        self._rebound.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- phases: set-up and each pass ----------------------------------------

    def begin_phase(self, label: str):
        self._phase_open = (label, len(self.name), dict(self.counters))

    def end_phase(self):
        label, lo, before = self._phase_open
        delta = {k: self.counters[k] - before[k] for k in COUNTERS}
        # a maximum, not a sum: restart it for the next phase
        delta["howe.nullspace.u_bytes_max"] = self.counters["howe.nullspace.u_bytes_max"]
        self.counters["howe.nullspace.u_bytes_max"] = 0
        self._phases.append((label, lo, len(self.name), delta))
        self._phase_open = None

    # -- derived statistics ----------------------------------------------------

    def _arrays(self):
        return (np.array(self.name, dtype=np.int32), np.array(self.start),
                np.array(self.end), np.array(self.parent, dtype=np.int32))

    def phase_stats(self) -> List[Tuple[str, Dict[str, float]]]:
        """Per phase: calls, inclusive s and self_s per span name, plus counters."""
        name, start, end, parent = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_dur = dur - child
        k = len(self.names)
        lift_id, loop_id = self._ids["pin.lift"], self._ids["pin.loop_lift_sign"]
        out = []
        for label, lo, hi, counters in self._phases:
            nm = name[lo:hi]
            calls = np.bincount(nm, minlength=k)
            incl = np.bincount(nm, weights=dur[lo:hi], minlength=k)
            excl = np.bincount(nm, weights=self_dur[lo:hi], minlength=k)
            stats: Dict[str, float] = {}
            for i, n in enumerate(self.names):
                stats[f"{n}.calls"] = int(calls[i])
                stats[f"{n}.s"] = float(incl[i])
                stats[f"{n}.self_s"] = float(excl[i])
            par = parent[lo:hi]
            nested = (nm == lift_id) & (par >= 0)
            stats["pin.loop_lift_sign.lifts_made"] = int((name[par[nested]] == loop_id).sum())
            stats.update(counters)
            out.append((label, stats))
        return out

    def write(self, path):
        """Save the spans, times relative to the first, and the phase bounds."""
        name, start, end, parent = self._arrays()
        t0 = start.min() if start.size else 0.0
        np.savez(path, names=np.array(self.names), name=name, start=start - t0,
                 end=end - t0, parent=parent, item=np.array(self.items, dtype=np.int32),
                 phase=np.array([p[0] for p in self._phases]),
                 phase_bounds=np.array([p[1:3] for p in self._phases], dtype=np.int64))


# -- the per-layer metrics a traced run reports ---------------------------------

def _m(names: str, stats: str) -> List[str]:
    return [f"{n}.{s}" for n in names.split() for s in stats.split()]


PER_LAYER_METRICS: List[str] = (
    _m("families.build_pair", "calls s")
    + _m("clifford.mul", "calls s self_s term_pairs") + _m("clifford.distance", "calls s")
    + _m("pin.lift", "calls s self_s") + _m("pin.loop_lift_sign", "calls s")
    + ["pin.classify_extension.s", "pin.path_useful_ratio"]
    + _m("pin.project", "calls s self_s") + ["pin.commutator_pairing.s"]
    + ["spinor.build_spinors.s"] + _m("spinor.d_pi spinor.pi_rep spinor.gamma_tilde", "calls s")
    + ["howe.howe_check.s"] + _m("howe.generated_algebra howe.commutant", "calls s")
    + ["howe.subspace_equal.s"]
    + _m("howe.nullspace", "calls s in_cells u_bytes_max")
    + ["howe.invariant_space.s"] + _m("howe.exterior_derivation_matrix", "calls s")
    + _m("howe.verify_generation howe.transfer_invariants", "s")
    + _m("cli.run_pair cli.compare_with_expected cli.report_json", "s")
    + ["bench.traced_pass_s", "bench.trace_overhead_s"]
)


def metric_unit(name: str) -> Tuple[str, str]:
    """(unit, better) of a per-layer metric, from its stat suffix."""
    stat = name.rsplit(".", 1)[1]
    if stat in ("calls", "term_pairs", "in_cells"):
        return "count", "lower"
    if stat == "u_bytes_max":
        return "B", "lower"
    if stat == "path_useful_ratio":
        return "ratio", "higher"
    return "s", "lower"


def layer_metrics(phases: List[Tuple[str, Dict[str, float]]], untraced: List[dict],
                  traced: List[dict]) -> Dict[str, float]:
    """Set-up once plus the median traced pass, for every per-layer metric.

    Largest-size counters take the maximum instead.  The path ratio divides
    the lifts one attempt at the requested step count needs by the lifts
    actually made; 1 means no refinement doubling (and no path lifting).
    """
    setup = [s for label, s in phases if label == "setup"]
    runs = [s for label, s in phases if label == "pass"]
    total: Dict[str, float] = {}
    for key in runs[0]:
        if key.endswith("u_bytes_max"):
            total[key] = max(s[key] for s in setup + runs)
        else:
            total[key] = sum(s[key] for s in setup) + statistics.median(s[key] for s in runs)
    made = total["pin.loop_lift_sign.lifts_made"]
    total["pin.path_useful_ratio"] = (
        total["pin.loop_lift_sign.requested_lifts"] / made if made else 1.0)
    untraced_s = statistics.median(p["wall_s"] for p in untraced)
    total["bench.traced_pass_s"] = statistics.median(p["wall_s"] for p in traced)
    total["bench.trace_overhead_s"] = total["bench.traced_pass_s"] - untraced_s
    return {k: total[k] for k in PER_LAYER_METRICS}
