"""Spans around the public callables of twistcount, recorded from outside.

``wrap`` replaces each traced callable, wherever a twistcount module binds
it, by a wrapper that records one span (name, start, end, parent span,
unit id) per call; ``unwrap`` puts every original back.  Spans are kept
in flat arrays while the run lasts and written out when it ends.  A
layer's self time is its span time minus the time covered by its child
spans, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("graphs", "exactalg", "picard", "orbits", "cli")

# (module, attribute path inside it, layer name).  Layer names follow
# <module>.<callable>; methods are named after their class.
LAYERS = (
    ("picard", "check_rootsnum_graph", "picard.check_rootsnum_graph"),
    ("picard", "root_count_criterion", "picard.root_count_criterion"),
    ("picard", "total_degree", "picard.total_degree"),
    ("picard", "random_bundle", "picard.random_bundle"),
    ("picard", "_pad_degree", "picard._pad_degree"),
    ("picard", "RootCounter.__init__", "picard.RootCounter.init"),
    ("picard", "RootCounter.base_solution", "picard.RootCounter.base_solution"),
    ("picard", "RootCounter.vertex_targets", "picard.RootCounter.vertex_targets"),
    ("picard", "RootCounter.count", "picard.RootCounter.count"),
    ("picard", "RootCounter.solution_count", "picard.RootCounter.solution_count"),
    ("picard", "RootCounter.solutions", "picard.RootCounter.solutions"),
    ("picard", "count_roots", "picard.count_roots"),
    ("picard", "enumerate_discrete_roots", "picard.enumerate_discrete_roots"),
    ("picard", "torsion_count", "picard.torsion_count"),
    ("picard", "construct_root", "picard.construct_root"),
    ("picard", "delta_image_member", "picard.delta_image_member"),
    ("picard", "delta_image_lift", "picard.delta_image_lift"),
    ("exactalg", "smith_normal_form", "exactalg.smith_normal_form"),
    ("exactalg", "kernel_size_by_smith", "exactalg.kernel_size_by_smith"),
    ("exactalg", "hom_image_contains", "exactalg.hom_image_contains"),
    ("exactalg", "solve_congruence", "exactalg.solve_congruence"),
    ("graphs", "enumerate_stable_graphs", "graphs.enumerate_stable_graphs"),
    ("graphs", "_stabilizer_assignments", "graphs._stabilizer_assignments"),
    ("graphs", "canonical_form", "graphs.canonical_form"),
    ("graphs", "classify_node", "graphs.classify_node"),
    ("orbits", "nr_report", "orbits.nr_report"),
    ("orbits", "enumerate_root_classes", "orbits.enumerate_root_classes"),
    ("orbits", "orbit_count", "orbits.orbit_count"),
    ("cli", "main", "cli.main"),
)


def _count_domain(counts, args, kwargs, result):
    counts["picard.RootCounter.domain_total"] += args[0].domain_size


def _count_cells(counts, args, kwargs, result):
    A = args[0]
    counts["exactalg.smith_normal_form.cells"] += len(A) * (len(A[0]) if A else 0)


def _count_passes(counts, args, kwargs, result):
    counts["picard.root_count_criterion.passed"] += bool(result[0])


def _count_emitted(counts, args, kwargs, result):
    counts["graphs.enumerate_stable_graphs.emitted"] += len(result)


# Work counters read from a call's arguments or result after it returns.
HOOKS = {
    "picard.RootCounter.init": _count_domain,
    "exactalg.smith_normal_form": _count_cells,
    "picard.root_count_criterion": _count_passes,
    "graphs.enumerate_stable_graphs": _count_emitted,
}


class Tracer:
    """In-memory span store.  ``unit`` tags each span with the workload unit
    (graph, instance or call) that was running; -1 marks set-up."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit_of = array("i")
        self.unit = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit_of.append(self.unit)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per layer name: (calls, summed self seconds)."""
        calls = Counter()
        busy: dict[str, float] = {}
        for nid, own in zip(self.name, self.self_times()):
            name = self.names[nid]
            calls[name] += 1
            busy[name] = busy.get(name, 0.0) + own
        return {name: (calls[name], busy[name]) for name in calls}

    def write(self, path, meta: dict) -> None:
        """Spans as gzipped TSV, times in nanoseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tunit\n")
            for i, (nid, s, e, p, u) in enumerate(
                zip(self.name, self.start, self.end, self.parent, self.unit_of)
            ):
                fh.write(
                    f"{i}\t{names[nid]}\t{round((s - t0) * 1e9)}\t"
                    f"{round((e - t0) * 1e9)}\t{p}\t{u}\n"
                )


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            s, e = max(starts[c], lo), min(ends[c], hi)
            if e <= s:
                continue
            if run_hi is not None and s <= run_hi:
                run_hi = max(run_hi, e)
                continue
            if run_hi is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = s, e
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(hi - lo - covered)
    return out


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _make_wrapper(tracer: Tracer, layer: str, fn):
    nid = tracer.name_id(layer)
    hook = HOOKS.get(layer)
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(counts, args, kwargs, result)
        return result

    return wrapper


def wrap(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Route every traced callable through ``tracer``.

    Functions are rebound in every twistcount module (and the package)
    that holds them, since modules import each other's names; methods are
    rebound on their class.  Returns the undo list for ``unwrap``.  A
    callable that no longer exists is skipped and reports zero calls.
    """
    package = importlib.import_module("twistcount")
    modules = [package] + [
        importlib.import_module(f"twistcount.{m}") for m in MODULES
    ]
    undo: list[tuple[object, str, object]] = []
    for module_name, path, layer in LAYERS:
        module = importlib.import_module(f"twistcount.{module_name}")
        try:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
        except AttributeError:
            continue
        wrapper = _make_wrapper(tracer, layer, original)
        if isinstance(owner, type):
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, name, original))
                    setattr(mod, name, wrapper)
    return undo


def unwrap(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit), zero for idle layers."""
    totals = tracer.layer_totals()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for _, _, layer in LAYERS:
        calls, busy = totals.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (busy, "s")
    criteria = totals.get("picard.root_count_criterion", (0, 0.0))[0]
    out["picard.root_count_criterion.pass_frac"] = (
        counts["picard.root_count_criterion.passed"] / criteria if criteria else 0.0,
        "ratio",
    )
    out["picard.RootCounter.domain_total"] = (
        counts["picard.RootCounter.domain_total"],
        "count",
    )
    out["exactalg.smith_normal_form.cells"] = (
        counts["exactalg.smith_normal_form.cells"],
        "count",
    )
    emitted = counts["graphs.enumerate_stable_graphs.emitted"]
    canon = totals.get("graphs.canonical_form", (0, 0.0))[0]
    out["graphs.canonical_form.per_graph"] = (
        canon / emitted if emitted else 0.0,
        "calls/graph",
    )
    return out
