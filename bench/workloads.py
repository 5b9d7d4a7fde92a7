"""The four benchmark workloads: seeded inputs, the timed call, the checks.

Each workload is a closed loop with one caller: a unit (a graph, an
instance or a ``tc`` call) runs only after the previous one returned.
Inputs come from the seed alone; the library sees only the generated
graphs, bundles and targets.  Importing this module imports twistcount
from the ``src`` directory beside the benchmark, and nothing else.

A run executes the workload's fixed part (``fixed`` inputs, always the
same for a seed) and then draws further inputs from ``more()``, in
blocks of ``block`` units, until its time is up.  ``planned_ops`` gives
the operations a unit attempts, and ``check`` returns how many of them
failed, so that a unit that raises counts all of its operations as
failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from math import gcd, prod
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "twistcount" / "__init__.py").is_file():
    raise ImportError(f"twistcount sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import twistcount  # noqa: E402
from twistcount import cli, exactalg, graphs, orbits, picard  # noqa: E402

if not Path(twistcount.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"twistcount imported from {twistcount.__file__}, not {SRC}")

ROOTSNUM_ORDERS = (2, 3, 4, 6)
ROOTSNUM_STABILIZERS = (1, 2, 3, 4, 6)
WIDE_ORDERS = (4, 6, 12)
SEPARATING_STABILIZERS = (1, 2, 3, 4, 6, 12)
KERNEL_ORDERS = (2, 3, 4, 6, 12)
NR_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)
# Kernel enumeration and counted roots in ``kernels`` run up to this
# solution-domain size, so that Smith reduction dominates that workload.
SMALL_DOMAIN = 10**4
# Root enumeration and the fraction-sweep oracle in ``roots-wide`` run up
# to this domain size.  Both sweep the whole domain (about 7 and 16
# microseconds per element here), so the oracle's own 10^4 cap would make
# checking cost several times the timed phase.
ENUM_DOMAIN = 10**3
LIFT_TARGETS = 3


def _decorate(shape, stabs):
    return graphs.DualGraph(
        shape.vertices,
        tuple(graphs.Edge(e.tail, e.head, l) for e, l in zip(shape.edges, stabs)),
    )


def _free_factor(G, r):
    return r ** (2 * sum(v.genus for v in G.vertices) + graphs.betti(G))


class Workload:
    """Defaults shared by the workloads."""

    # Units between two looks at the clock once the fixed part is done.
    block = 1

    def more(self):
        return iter(())

    def in_latency(self, inp) -> bool:
        """Whether the unit is a graph or instance timed for unit_*_ms."""
        return True


class Rootsnum(Workload):
    """c03 traffic: criterion versus counted roots on decorated genus-3 graphs.

    Shapes are drawn with weight 5^edges, so every labelled decoration of
    the family is equally likely, and each edge stabilizer from
    {1, 2, 3, 4, 6}.  One unit is one graph; one operation is one check.
    """

    name = "rootsnum"
    n_fixed = 600
    unit_ops = len(ROOTSNUM_ORDERS) * (3 + 50)

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"rootsnum:{seed}")
        self.shapes = graphs.enumerate_stable_graphs(3, 0, (1,))
        self.weights = [5**s.n_edges for s in self.shapes]
        self.fixed = [self._draw() for _ in range(self.n_fixed)]

    def _draw(self):
        shape = self.rng.choices(self.shapes, self.weights)[0]
        stabs = [self.rng.choice(ROOTSNUM_STABILIZERS) for _ in shape.edges]
        return _decorate(shape, stabs)

    def more(self):
        while True:
            yield self._draw()

    def planned_ops(self, G) -> int:
        return self.unit_ops

    def run(self, G):
        return picard.check_rootsnum_graph(
            G, ROOTSNUM_ORDERS, n_random=50, seed=self.seed
        )

    def check(self, G, out) -> int:
        discrepancies, checked = out
        if checked != self.unit_ops:
            return self.unit_ops
        return min(len(discrepancies), self.unit_ops)


class _Instances:
    """Instances (G, r) on genus-2 and genus-3 shapes: nonseparating
    stabilizers r*{1,2}, separating ones from {1,2,3,4,6,12}, solution
    domain prod gcd(l_e, r) at most the library's default cap.

    Cost is heavy-tailed in the domain (a few per cent of the instances
    take most of the time), so the decorations follow a fixed schedule
    rather than the seed.  Every (shape, r) pair comes once per pass, and
    over each cycle of CYCLE passes every edge of a pair takes each
    separating choice once (and each nonseparating multiplier equally
    often), in an order fixed by the cycle's number.  Every seed thus sees
    the same graphs cycle by cycle; the seed orders each pass and draws
    the bundles and targets.  With seeded decorations the p95 and p99
    instance times moved by a quarter between seeds.  Pairs whose
    nonseparating edges alone overflow the cap are left out; a scheduled
    decoration that overflows it is replaced by one that fits.
    """

    CYCLE = len(SEPARATING_STABILIZERS)

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.pairs = []
        for g in (2, 3):
            for shape in graphs.enumerate_stable_graphs(g, 0, (1,)):
                nonsep = tuple(
                    not graphs.classify_node(shape, k).separating
                    for k in range(shape.n_edges)
                )
                for r in WIDE_ORDERS:
                    if r ** sum(nonsep) <= picard.DEFAULT_MAX_DOMAIN:
                        self.pairs.append((shape, nonsep, r))
        self._pass: list[int] = []
        self._passes = 0
        self._schedule: list[list[list[int]]] = []

    def _new_cycle(self):
        """Per pair, the decoration of each pass of the coming cycle."""
        rng = random.Random(f"cycle:{self._passes // self.CYCLE}")
        self._schedule = []
        for shape, nonsep, r in self.pairs:
            columns = []
            for ns in nonsep:
                if ns:
                    values = [r * m for m in (1, 2) * (self.CYCLE // 2)]
                else:
                    values = list(SEPARATING_STABILIZERS)
                rng.shuffle(values)
                columns.append(values)
            rows = []
            for slot in range(self.CYCLE):
                stabs = [column[slot] for column in columns]
                while prod(gcd(l, r) for l in stabs) > picard.DEFAULT_MAX_DOMAIN:
                    stabs = [
                        r * rng.choice((1, 2)) if ns else rng.choice(SEPARATING_STABILIZERS)
                        for ns in nonsep
                    ]
                rows.append(stabs)
            self._schedule.append(rows)

    def draw(self):
        if not self._pass:
            if self._passes % self.CYCLE == 0:
                self._new_cycle()
            self._pass = list(range(len(self.pairs)))
            self.rng.shuffle(self._pass)
            self._passes += 1
        i = self._pass.pop()
        shape, nonsep, r = self.pairs[i]
        stabs = self._schedule[i][(self._passes - 1) % self.CYCLE]
        return _decorate(shape, stabs), r, nonsep, prod(gcd(l, r) for l in stabs)


class RootsWide(Workload):
    """Root counting and enumeration on wide domains, then nr_report.

    Per instance: count_roots on omega^k (k the least power whose degree
    r divides) and on the r-th power of a random bundle, and
    enumerate_discrete_roots on both when the domain is at most
    ENUM_DOMAIN.  Each cycle of instances ends with nr_report for the
    primes 5..31, so every block has the same mix.  One unit is one
    instance or one report; one operation is one query.
    """

    name = "roots-wide"
    cycles = 1

    def __init__(self, seed: int):
        self.rng = random.Random(f"roots-wide:{seed}")
        self.instances = _Instances(self.rng)
        self.fixed = [inp for _ in range(self.cycles) for inp in self._cycle()]
        self.block = len(self.fixed) // self.cycles

    def _cycle(self):
        n = _Instances.CYCLE * len(self.instances.pairs)
        return [self._draw() for _ in range(n)] + [("nr", p) for p in NR_PRIMES]

    def _draw(self):
        G, r, _, domain = self.instances.draw()
        g = graphs.genus(G)
        k = r // gcd(r, 2 * g - 2)
        bundles = (
            picard.omega_bundle(G, k),
            picard.rth_power(picard.random_bundle(G, self.rng), r),
        )
        return ("roots", G, r, bundles, domain <= ENUM_DOMAIN)

    def more(self):
        while True:
            yield from self._cycle()

    def in_latency(self, inp) -> bool:
        return inp[0] == "roots"

    def planned_ops(self, inp) -> int:
        if inp[0] == "nr":
            return 1
        _, _, _, bundles, small = inp
        return len(bundles) * (2 if small else 1)

    def run(self, inp):
        if inp[0] == "nr":
            return orbits.nr_report(inp[1])
        _, G, r, bundles, small = inp
        counts = [picard.count_roots(G, F, r) for F in bundles]
        listed = (
            [len(picard.enumerate_discrete_roots(G, F, r)) for F in bundles]
            if small
            else None
        )
        return counts, listed

    def check(self, inp, out) -> int:
        if inp[0] == "nr":
            p = inp[1]
            return int(out.genus_nr != (p - 5) * (p - 7) // 24)
        _, G, r, bundles, small = inp
        counts, listed = out
        torsion = picard.torsion_count(G, r)
        failed = 0
        for i, F in enumerate(bundles):
            # A bundle has no roots or exactly as many as the r-torsion
            # (a Smith count, independent of the tables).  The r-th power
            # (the second bundle) always has roots; omega^k gets the
            # fraction-sweep oracle as well.
            ok = counts[i] == torsion or (i == 0 and counts[i] == 0)
            if small:
                if i == 0:
                    ok = ok and counts[i] == picard.count_roots_by_fractions(G, F, r)
                failed += listed[i] * _free_factor(G, r) != counts[i]
            failed += not ok
        return failed


class Kernels(Workload):
    """c04 and c09 traffic: Smith-reduction kernels, torsion, constructed
    roots, and boundary-map membership and lifts.

    Per instance (G, r): kernel_size_by_smith of the boundary map for
    every order in {2,3,4,6,12}, on G and on G minus each nonseparating
    edge; torsion_count; construct_root of the r-th power of a random
    bundle; delta_image_member and delta_image_lift on random
    augmentation-zero targets; count_roots when the domain is small.
    One unit is one instance; one operation is one query.
    """

    name = "kernels"
    cycles = 1

    def __init__(self, seed: int):
        self.rng = random.Random(f"kernels:{seed}")
        self.instances = _Instances(self.rng)
        self.block = _Instances.CYCLE * len(self.instances.pairs)
        self.fixed = [self._draw() for _ in range(self.cycles * self.block)]

    def _draw(self):
        rng = self.rng
        G, r, nonsep, domain = self.instances.draw()
        deleted = tuple(
            graphs.DualGraph(G.vertices, G.edges[:k] + G.edges[k + 1 :])
            for k, ns in enumerate(nonsep)
            if ns
        )
        F = picard.rth_power(picard.random_bundle(G, rng), r)
        targets = []
        for _ in range(LIFT_TARGETS):
            t = [rng.randrange(r) for _ in range(G.n_vertices)]
            t[-1] = (t[-1] - sum(t)) % r
            targets.append(tuple(t))
        return G, r, nonsep, deleted, F, tuple(targets), domain <= SMALL_DOMAIN

    def more(self):
        while True:
            yield self._draw()

    def planned_ops(self, inp) -> int:
        _, _, _, deleted, _, targets, small = inp
        return len(KERNEL_ORDERS) * (1 + len(deleted)) + 2 + 2 * len(targets) + small

    def run(self, inp):
        G, r, _, deleted, F, targets, small = inp
        sizes = [
            [
                exactalg.kernel_size_by_smith(picard.delta_embed(H, rr))
                for H in (G,) + deleted
            ]
            for rr in KERNEL_ORDERS
        ]
        torsion = picard.torsion_count(G, r)
        root = picard.construct_root(G, F, r)
        lifts = [
            (picard.delta_image_member(G, r, t), picard.delta_image_lift(G, r, t))
            for t in targets
        ]
        count = picard.count_roots(G, F, r) if small else None
        return sizes, torsion, root, lifts, count

    def check(self, inp, out) -> int:
        G, r, nonsep, deleted, F, targets, small = inp
        sizes, torsion, root, lifts, count = out
        failed = 0
        stabs = G.stabilizers()
        nonsep_edges = [k for k, ns in enumerate(nonsep) if ns]
        b1 = graphs.betti(G)
        for rr, row in zip(KERNEL_ORDERS, sizes):
            size = row[0]
            divisible = all(stabs[k] % rr == 0 for k in nonsep_edges)
            for j, (H, value) in enumerate(zip((G,) + deleted, row)):
                hom = picard.delta_embed(H, rr)
                ok = value >= 1
                if j == 0:
                    if hom.domain_size <= SMALL_DOMAIN:
                        ok = ok and value == exactalg.kernel_size_by_enumeration(hom)
                    # c04: maximal exactly under divisibility.
                    ok = ok and (value == rr**b1) == divisible
                else:
                    # Deleting edge k: exact when divisible, a bound otherwise.
                    bound = value * gcd(rr, stabs[nonsep_edges[j - 1]])
                    ok = ok and (size == bound if divisible else size <= bound)
                failed += not ok
        kernel_r = sizes[KERNEL_ORDERS.index(r)][0]
        failed += torsion != _free_factor(G, r) * kernel_r
        failed += root is None or picard.rth_power(root, r) != F
        hom = picard.delta_embed(G, r)
        for t, (member, lift) in zip(targets, lifts):
            failed += member != exactalg.hom_image_contains(hom, t)[0]
            if member:
                failed += lift is None or hom.apply(lift) != t
            else:
                failed += lift is not None
        if small:
            failed += count != torsion
        return failed


class Enumerate(Workload):
    """``tc enumerate`` in process: the decorated genus-3 family and the
    genus-4 shapes, with ``--list``.  No random input: the seed is
    recorded but unused.  One unit is one call; one operation is one
    graph emitted."""

    name = "enumerate"
    CALLS = (
        (("enumerate", "-g", "3", "--stabilizers", "1,2,3,4,6", "--list"), 31156),
        (("enumerate", "-g", "4", "--list"), 379),
    )

    def __init__(self, seed: int):
        self.fixed = list(self.CALLS)

    def planned_ops(self, inp) -> int:
        return inp[1]

    def run(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(inp[0]))
        return code, buf.getvalue()

    def check(self, inp, out) -> int:
        code, text = out
        pinned = inp[1]
        if code != 0:
            return pinned
        payload = json.loads(text)
        graphs_out = payload.get("graphs", [])
        if payload.get("count") != pinned or len(graphs_out) != pinned:
            return pinned
        return 0


WORKLOADS = {w.name: w for w in (Rootsnum, RootsWide, Kernels, Enumerate)}
