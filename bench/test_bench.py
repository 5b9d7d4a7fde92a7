"""Tests for the benchmark's own code.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import importlib
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _fingerprint(wl):
    return [repr(inp) for inp in wl.fixed[:50]] + [
        repr(inp) for inp, _ in zip(wl.more(), range(20))
    ]


@pytest.mark.parametrize(
    "name, size", [("rootsnum", ("n_fixed", 60)), ("roots-wide", ("cycles", 1)), ("kernels", ("cycles", 1))]
)
def test_generators_repeat_for_a_seed_and_differ_across_seeds(name, size, monkeypatch):
    cls = workloads.WORKLOADS[name]
    monkeypatch.setattr(cls, *size)
    a = _fingerprint(cls(7))
    b = _fingerprint(cls(7))
    c = _fingerprint(cls(8))
    assert a == b
    assert a != c


def test_instance_cycles_hold_the_same_graphs_for_every_seed():
    def cycle(seed):
        inst = workloads._Instances(random.Random(seed))
        return [inst.draw() for _ in range(inst.CYCLE * len(inst.pairs))]

    a, b = cycle(1), cycle(2)
    assert [x[:2] for x in a] != [x[:2] for x in b]
    assert sorted(repr(x[:2]) for x in a) == sorted(repr(x[:2]) for x in b)
    assert max(x[3] for x in a) <= workloads.picard.DEFAULT_MAX_DOMAIN


def test_enumerate_inputs_ignore_the_seed():
    wl = workloads.WORKLOADS["enumerate"]
    assert wl(1).fixed == wl(2).fixed
    assert [pinned for _, pinned in wl(1).fixed] == [31156, 379]


def test_self_times_on_a_hand_built_tree():
    # 0: [0, 10]  children 1: [1, 4] and 2: [3, 6] overlap -> cover [1, 6]
    # 1: [1, 4]   child 3: [2, 3]
    # 2: [3, 6]   no children
    # 3: [2, 3]   no children
    # 4: [8, 12]  child of 0 sticking out past its end -> clipped to [8, 10]
    # 5: [20, 25] a second root with child 6: [21, 22]
    starts = [0.0, 1.0, 3.0, 2.0, 8.0, 20.0, 21.0]
    ends = [10.0, 4.0, 6.0, 3.0, 12.0, 25.0, 22.0]
    parents = [-1, 0, 0, 1, 0, -1, 5]
    got = tracing.self_times(starts, ends, parents)
    assert got == pytest.approx([10 - 5 - 2, 3 - 1, 3, 1, 4, 4, 1])


def test_layer_totals_sum_self_time_by_name():
    tracer = tracing.Tracer()
    outer = tracer.name_id("outer")
    inner = tracer.name_id("inner")
    tracer.name.extend([outer, inner, inner])
    tracer.start.extend([0.0, 1.0, 5.0])
    tracer.end.extend([10.0, 2.0, 7.0])
    tracer.parent.extend([-1, 0, 0])
    tracer.unit_of.extend([0, 0, 0])
    assert tracer.layer_totals() == {"outer": (1, 7.0), "inner": (2, 3.0)}


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, None),
        (2, None),
        (19, None),
        (20, 500),
        (39, 500),
        (40, 750),
        (100, 900),
        (199, 900),
        (200, 950),
        (999, 950),
        (1000, 990),
        (2009, 990),
        (9999, 990),
        (10000, 999),
        (10**6, 999),
    ],
)
def test_tail_percentile_rule(n, expected):
    assert run.tail_percentile(n) == expected
    if expected is not None:
        beyond = n - run._rank(expected, n)
        assert beyond >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert run.percentile(values, 990) == 990
    assert run.percentile(values, 500) == 500
    assert run.percentile([5.0], 990) == 5.0


def _snapshot():
    mods = [importlib.import_module("twistcount")] + [
        importlib.import_module(f"twistcount.{m}") for m in tracing.MODULES
    ]
    state = {mod.__name__: dict(vars(mod)) for mod in mods}
    for mod in mods:
        for name, value in vars(mod).items():
            if isinstance(value, type) and value.__module__.startswith("twistcount"):
                state[f"{value.__module__}.{value.__qualname__}"] = dict(vars(value))
    return state


def test_wrap_then_unwrap_restores_every_attribute():
    before = _snapshot()
    tracer = tracing.Tracer()
    undo = tracing.wrap(tracer)
    picard = importlib.import_module("twistcount.picard")
    exactalg = importlib.import_module("twistcount.exactalg")
    # Names imported across modules are rebound too.
    assert picard.kernel_size_by_smith is exactalg.kernel_size_by_smith
    assert picard.kernel_size_by_smith is not before["twistcount.exactalg"]["kernel_size_by_smith"]
    tracing.unwrap(undo)
    after = _snapshot()
    assert before.keys() == after.keys()
    for key in before:
        assert before[key].keys() == after[key].keys(), key
        for name in before[key]:
            assert before[key][name] is after[key][name], f"{key}.{name}"


def test_wrapped_calls_record_nested_spans_and_counters():
    graphs = importlib.import_module("twistcount.graphs")
    picard = importlib.import_module("twistcount.picard")
    tracer = tracing.Tracer()
    undo = tracing.wrap(tracer)
    try:
        G = graphs.dual_graph([0, 0], [(0, 1, 2), (0, 1, 2), (0, 0, 3)])
        tracer.unit = 4
        picard.torsion_count(G, 6)
        picard.count_roots(G, picard.omega_bundle(G, 1), 2)
    finally:
        tracing.unwrap(undo)
    totals = tracer.layer_totals()
    assert totals["picard.torsion_count"][0] == 1
    assert totals["exactalg.kernel_size_by_smith"][0] == 1
    assert totals["exactalg.smith_normal_form"][0] == 1
    assert totals["picard.RootCounter.init"][0] == 1
    names = [tracer.names[n] for n in tracer.name]
    smith = names.index("exactalg.smith_normal_form")
    assert names[tracer.parent[smith]] == "exactalg.kernel_size_by_smith"
    assert set(tracer.unit_of) == {4}
    metrics = tracing.layer_metrics(tracer)
    # Boundary map of 2 vertices x 3 edges, stacked with the 2x2 moduli block.
    assert metrics["exactalg.smith_normal_form.cells"][0] == 2 * 5
    # Domain gcd(2,2) * gcd(2,2) * gcd(3,2).
    assert metrics["picard.RootCounter.domain_total"][0] == 4
    assert all(self_s >= 0 for _, self_s in totals.values())


def test_slowness_uses_samples_since_a_mark_or_the_last_window():
    speed = run.SpeedSampler()
    nominal = run.REF_NOMINAL_S
    speed.samples = [nominal * x for x in (1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3)]
    # Fewer than REF_WINDOW samples since the mark: the last window counts.
    assert speed.slowness(since=10) == pytest.approx(2.0)
    # More than a window since the mark: all of them count.
    assert speed.slowness(since=3) == pytest.approx(2.0)
    assert speed.slowness(since=0) == pytest.approx(2.0)
    # Three samples since the mark, window of five: (4, 4, 1, 1, 1).
    speed.samples = [nominal * x for x in (4, 4, 4, 1, 1, 1)]
    assert run.REF_WINDOW == 5
    assert speed.slowness(since=3) == pytest.approx(1.0)


def test_sampler_restores_the_alarm_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedSampler() as speed:
        deadline = run.time.perf_counter() + 0.2
        while run.time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 2 and speed.spent > 0

