import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistcount import oracles, orbits, picard
from twistcount.graphs import (
    DualGraph,
    Edge,
    MultiIndex,
    dual_graph,
    enumerate_stable_graphs,
)
from twistcount.oracles import (
    RootClass,
    StabilizerNotDivisible,
    _normalize_gluing,
    burnside_orbit_count,
    enumerate_root_classes,
    ghost_act,
    involution_act,
    root_class,
    spanning_tree,
)
from twistcount.orbits import (
    BadAutOrder,
    BadR,
    FibreExceedsDegree,
    NotRational,
    OrbitError,
    acting_edges,
    aut_order_ratio,
    cond_check,
    elliptic_torsion_orbits,
    ghost_group_order,
    nr_report,
    orbit_count,
    riemann_hurwitz_chi,
    verify_cond,
)
from twistcount.picard import (
    HypothesisViolated,
    count_roots,
    line_bundle,
    omega_bundle,
    rth_power,
    trivial_bundle,
)


def _group_elements(G, r, with_involution):
    edges = acting_edges(G, r)
    ranges = [range(G.edges[k].stabilizer) for k in edges]
    flips = (False, True) if with_involution else (False,)
    for powers in itertools.product(*ranges):
        for flip in flips:
            yield edges, powers, flip


def _apply_element(c, edges, powers, flip):
    G, r = c.graph, c.r
    beta = list(c.gluing)
    for k, p in zip(edges, powers):
        l = G.edges[k].stabilizer
        beta[k] = (beta[k] + p * (r // l) * c.mult[k]) % r
    out = RootClass(G, r, c.mult, _normalize_gluing(G, r, beta))
    if flip:
        out = involution_act(out)
    return out


def _orbit_count_by_sweep(G, F, r, with_involution=False, classes=None):
    """Orbit partition by walking the generators class by class, checked
    against a Burnside average that applies every group element to every
    class: the reference for orbit_count."""
    if classes is None:
        classes = enumerate_root_classes(G, F, r)
    index = {c: i for i, c in enumerate(classes)}
    generators = acting_edges(G, r)
    seen = [False] * len(classes)
    found = []
    for i, start in enumerate(classes):
        if seen[i]:
            continue
        orbit = []
        stack = [start]
        seen[i] = True
        while stack:
            c = stack.pop()
            orbit.append(c)
            images = [ghost_act(c, k) for k in generators]
            if with_involution:
                images.append(involution_act(c))
            for image in images:
                if image not in index:
                    raise OrbitError("the group action leaves the set of root classes")
                j = index[image]
                if not seen[j]:
                    seen[j] = True
                    stack.append(image)
        found.append(sorted(orbit, key=lambda c: (c.mult, c.gluing)))
    fixed_total = 0
    n_elements = 0
    for edges, powers, flip in _group_elements(G, r, with_involution):
        n_elements += 1
        for c in classes:
            image = _apply_element(c, edges, powers, flip)
            if image not in index:
                raise OrbitError("the group action leaves the set of root classes")
            if image == c:
                fixed_total += 1
    if fixed_total % n_elements or fixed_total // n_elements != len(found):
        raise OrbitError(f"Burnside sum {fixed_total} disagrees with {len(found)} orbits")
    found.sort(key=lambda orbit: (orbit[0].mult, orbit[0].gluing))
    return len(found), found


def _sweep_sizes(G, F, r, with_involution=False, nontrivial=False):
    """(number, sizes largest first) of the sweep's orbits, over all root
    classes or over all but the trivial class."""
    classes = enumerate_root_classes(G, F, r)
    if nontrivial:
        classes = _nontrivial(classes)
    n, found = _orbit_count_by_sweep(G, F, r, with_involution, classes)
    return n, sorted(map(len, found), reverse=True)


def _nontrivial(classes):
    return [c for c in classes if any(c.mult) or any(c.gluing)]


def pointed_loop(l):
    return dual_graph([(0, [1])], [(0, 0, l)])


def theta(l=1):
    return dual_graph([0, 0], [(0, 1, l), (0, 1, l), (0, 1, l)])


_RATIONAL_SHAPES = [
    G
    for g, n in ((1, 1), (1, 2), (2, 0), (2, 1))
    for G in enumerate_stable_graphs(g, n, [1])
    if not any(v.genus for v in G.vertices)
]


UNIQUE = dual_graph([(0, [1, 2]), (0, [3, 4])], [(0, 1, 2)])


class TestGhostGroup:
    def test_no_edges(self):
        assert ghost_group_order(dual_graph([(2, [1])])) == 1

    def test_single_loop(self):
        assert ghost_group_order(pointed_loop(2)) == 2

    def test_product(self):
        G = dual_graph([0, 0], [(0, 1, 2), (0, 1, 3)])
        assert ghost_group_order(G) == 6


class TestGhostAction:
    def test_pullbacks_are_fixed(self):
        G = pointed_loop(2)
        c = root_class(G, 2, (0,), (1,))
        assert ghost_act(c, 0) == c

    def test_twist_on_nontrivial_multiplicity(self):
        G = pointed_loop(2)
        c = root_class(G, 2, (1,), (0,))
        moved = ghost_act(c, 0)
        assert moved.gluing == (1,)
        assert ghost_act(moved, 0) == c  # order 2

    def test_generator_order_divides_stabilizer(self):
        G = pointed_loop(3)
        for mult in range(3):
            c = root_class(G, 3, (mult,), (1,))
            image = c
            for _ in range(3):
                image = ghost_act(image, 0)
            assert image == c

    def test_generators_commute(self):
        G = dual_graph([0, 0], [(0, 1, 2), (0, 1, 2), (0, 1, 2)])
        c = root_class(G, 2, (1, 1, 0), (0, 1, 1))
        ab = ghost_act(ghost_act(c, 0), 1)
        ba = ghost_act(ghost_act(c, 1), 0)
        assert ab == ba

    def test_indivisible_stabilizer_rejected(self):
        G = pointed_loop(4)
        c = root_class(G, 2, (1,), (0,))
        with pytest.raises(StabilizerNotDivisible):
            ghost_act(c, 0)

    def test_bridge_twist_is_a_coboundary(self):
        # Twisting the gluing at a bridge rescales one side away: the
        # normalized class is unchanged.
        G = dual_graph([0, 0], [(0, 1, 2), (0, 0, 2), (1, 1, 2)])
        c = root_class(G, 2, (0, 1, 1), (1, 0, 1))
        assert ghost_act(c, 0) == c

    def test_requires_rational_graph(self):
        with pytest.raises(NotRational):
            RootClass(dual_graph([(1, [1])], [(0, 0, 2)]), 2, (0,), (0,))


class TestRootClasses:
    def test_pointed_loop_has_four(self):
        G = pointed_loop(2)
        classes = enumerate_root_classes(G, trivial_bundle(G), 2)
        assert len(classes) == 4
        assert {(c.mult, c.gluing) for c in classes} == {
            ((0,), (0,)),
            ((0,), (1,)),
            ((1,), (0,)),
            ((1,), (1,)),
        }

    def test_size_matches_count_roots(self):
        for l, r in ((2, 2), (3, 3), (6, 2)):
            G = pointed_loop(l)
            F = omega_bundle(G, 1)
            classes = enumerate_root_classes(G, F, r)
            assert len(classes) == count_roots(G, F, r)

    def test_empty_when_no_roots(self):
        G = dual_graph([(0, [1, 2]), (0, [3])], [(0, 1, 1)])
        L = omega_bundle(G, 1, {1: 1})  # side degrees 0 and 1, no square roots
        assert count_roots(G, L, 2) == 0
        assert enumerate_root_classes(G, L, 2) == []

    def test_theta_torsion_classes(self):
        G = theta()
        classes = enumerate_root_classes(G, trivial_bundle(G), 2)
        assert len(classes) == 4  # r^(b_1) with b_1 = 2

    @pytest.mark.parametrize("G", _RATIONAL_SHAPES)
    def test_normal_form_kills_coboundaries(self, G):
        # r = 5 so that a sign slip in the coboundary cannot cancel.  The
        # library's quotient coordinates, which orbit_count reads its
        # twists from, vanish on every coboundary, and on beta exactly when
        # the oracle's normal form of beta is zero.
        rng = random.Random(repr(G))
        r = 5
        tree = spanning_tree(G)
        free = [k for k in range(G.n_edges) if k not in tree]
        rows, loops = orbits._coordinates(G)
        assert len(rows) + len(loops) == len(free)

        def image(beta):
            coords = tuple(sum(c * b for c, b in zip(row, beta)) % r for row in rows)
            return coords + tuple(beta[k] % r for k in loops)

        for _ in range(20):
            beta = [rng.randrange(r) for _ in G.edges]
            alpha = [rng.randrange(r) for _ in G.vertices]
            coboundary = [(alpha[e.head] - alpha[e.tail]) % r for e in G.edges]
            moved = [(b + c) % r for b, c in zip(beta, coboundary)]
            normal = _normalize_gluing(G, r, beta)
            assert _normalize_gluing(G, r, moved) == normal
            assert all(normal[k] == 0 for k in tree)
            assert not any(image(coboundary))
            assert image(moved) == image(normal) == image(beta)
            assert any(image(beta)) == any(normal)
        # The oracle's normal forms are the r^{b1} gluings carried by the
        # edges off the tree; the coordinates tell every two apart, so
        # only the zero normal form has zero coordinates.
        images = set()
        for x in itertools.product(range(r), repeat=len(free)):
            beta = [0] * G.n_edges
            for k, a in zip(free, x):
                beta[k] = a
            assert _normalize_gluing(G, r, beta) == tuple(beta)
            images.add(image(beta))
        assert len(images) == r ** len(free)

    def test_gluing_normal_form_quotient(self):
        G = theta(2)
        a = root_class(G, 2, (0, 0, 0), (1, 1, 1))
        b = root_class(G, 2, (0, 0, 0), (0, 0, 0))
        # beta = (1,1,1) is the coboundary of the indicator of one vertex
        assert a == b


class TestOrbits:
    @pytest.mark.parametrize("call", [orbit_count, enumerate_root_classes])
    def test_class_cap_refuses_before_gluing_data(self, monkeypatch, call):
        # Thirty loops of stabilizer 1 carry one discrete root of the
        # trivial class and 2^30 classes, in 2^30 orbits of one class
        # each.  The cap refuses them on the count, before the quotient
        # coordinates (quadratic in b1) are built; the oracle
        # enumerate_root_classes refuses before it lists the root or reads
        # the spanning tree, orbit_count (which caps the orbits, not the
        # classes) after.
        def refuse(*args):
            raise AssertionError("built data for a refused input")

        monkeypatch.setattr(orbits, "_coordinates", refuse)
        if call is enumerate_root_classes:
            monkeypatch.setattr(picard.RootCounter, "_walk", refuse)
            monkeypatch.setattr(oracles, "spanning_tree", refuse)
            expected = "1073741824 root classes exceed the cap 1000000"
        else:
            expected = "1073741824 root classes make more than 1000000 orbits"
        G = dual_graph([0], [(0, 0, 1)] * 30)
        with pytest.raises(picard.DomainTooLarge) as exc:
            call(G, trivial_bundle(G), 2)
        assert str(exc.value) == expected

    def test_no_roots_build_no_gluing_data(self, monkeypatch):
        # An odd class has no square root: nothing is listed or built, where
        # listing the 2^b1 gluings took 2.3 s at b1 = 20.
        def refuse(*args):
            raise AssertionError("quotient coordinates built for a class without roots")

        monkeypatch.setattr(orbits, "_coordinates", refuse)
        G = dual_graph([0], [(0, 0, 1)] * 30)
        F = line_bundle(G, (1,), (0,) * 30)
        assert enumerate_root_classes(G, F, 2) == []
        assert orbit_count(G, F, 2, True, nontrivial=True) == (0, [])

    def test_coboundary_invariants_are_checked(self, monkeypatch):
        # The coordinates are right only if the coboundary matrix has
        # V - 1 unit invariants; a reduction that reports otherwise raises
        # OrbitError, even under python -O.
        reduce = orbits.smith_normal_form

        def doubled(A):
            U, D, V = reduce(A)
            return U, [[2 * a for a in row] for row in D], V

        monkeypatch.setattr(orbits, "smith_normal_form", doubled)
        G = theta(2)
        with pytest.raises(OrbitError, match="coboundary invariants"):
            orbit_count(G, trivial_bundle(G), 2)

    def test_pointed_loop_orbit_shape(self):
        G = pointed_loop(2)
        assert orbit_count(G, trivial_bundle(G), 2) == (3, [2, 1, 1])

    def test_orbit_sizes_partition_classes(self):
        G = pointed_loop(3)
        F = omega_bundle(G, 1)
        n, sizes = orbit_count(G, F, 3)
        assert len(sizes) == n
        assert sum(sizes) == count_roots(G, F, 3)

    def test_all_pullbacks_fixed(self):
        # The 4 pullbacks (multiplicities 0) among theta's 16 classes are
        # fixed; the twists of each other multiplicity vector span all of
        # (Z/2)^2, so its 4 classes form one orbit.
        G = theta(2)
        assert orbit_count(G, trivial_bundle(G), 2) == (7, [4, 4, 4, 1, 1, 1, 1])

    def test_nodal_count_with_involution(self):
        for r in (5, 7, 11, 13):
            G = pointed_loop(r)
            n, sizes = orbit_count(G, omega_bundle(G, 1), r, True, nontrivial=True)
            assert n == r - 1
            assert sum(sizes) == r * r - 1

    def test_involution_is_an_involution(self):
        G = pointed_loop(5)
        c = root_class(G, 5, (2,), (3,))
        assert involution_act(involution_act(c)) == c

    def test_unique_class_single_orbit(self):
        G = UNIQUE
        F = trivial_bundle(G)
        assert len(enumerate_root_classes(G, F, 2)) == 1
        assert orbit_count(G, F, 2) == (1, [1])
        assert orbit_count(G, F, 2, nontrivial=True) == (0, [])

    @pytest.mark.parametrize("with_involution", [False, True])
    @pytest.mark.parametrize("nontrivial", [False, True])
    @pytest.mark.parametrize(
        "G, F, r",
        [
            (pointed_loop(2), trivial_bundle(pointed_loop(2)), 2),
            (pointed_loop(3), omega_bundle(pointed_loop(3), 1), 3),
            (theta(2), trivial_bundle(theta(2)), 2),
            (theta(2), omega_bundle(theta(2), 1), 2),
            (UNIQUE, trivial_bundle(UNIQUE), 2),
        ]
        + [(pointed_loop(r), omega_bundle(pointed_loop(r), 1), r) for r in (5, 7, 11, 13)]
        # l = 2 < r = 4: each ghost generator twists by (r/l) * mult.
        + [(theta(2), trivial_bundle(theta(2)), 4)],
    )
    def test_matches_sweep_on_fixtures(self, G, F, r, with_involution, nontrivial):
        expected = _sweep_sizes(G, F, r, with_involution, nontrivial)
        assert orbit_count(G, F, r, with_involution, nontrivial=nontrivial) == expected

    def test_involution_leaving_the_classes_raises(self):
        # The involution sends some cube roots of omega here to classes
        # whose multiplicities carry no root.
        G = dual_graph([(0, []), (0, [1, 2])], [(0, 0, 1), (0, 1, 3)])
        F = omega_bundle(G, 1)
        assert orbit_count(G, F, 3)[0] == 3
        with pytest.raises(OrbitError):
            _orbit_count_by_sweep(G, F, 3, with_involution=True)
        with pytest.raises(OrbitError, match="involution"):
            burnside_orbit_count(G, F, 3, with_involution=True)
        with pytest.raises(OrbitError, match="involution"):
            orbit_count(G, F, 3, with_involution=True)

    def test_builds_no_root_classes(self):
        # orbits cannot reach the class-level oracles at all
        # (tests/test_package.py), so this pins the count alone.
        G = theta(2)
        F = omega_bundle(G, 1)
        expected = _sweep_sizes(G, F, 2, with_involution=True)
        assert orbit_count(G, F, 2, with_involution=True) == expected


@st.composite
def _rational_case(draw):
    shape = draw(st.sampled_from(_RATIONAL_SHAPES))
    stabs = [draw(st.sampled_from((1, 2, 3, 4, 6, 12))) for _ in shape.edges]
    G = DualGraph(
        shape.vertices,
        tuple(Edge(e.tail, e.head, l) for e, l in zip(shape.edges, stabs)),
    )
    r = draw(st.sampled_from((2, 3, 4, 6)))
    if draw(st.booleans()):
        F = omega_bundle(G, draw(st.integers(0, 3)))
    else:
        L = line_bundle(
            G,
            [draw(st.integers(-3, 3)) for _ in G.vertices],
            [draw(st.integers(0, l - 1)) for l in stabs],
        )
        F = rth_power(L, r)
    return G, F, r, draw(st.booleans()), draw(st.booleans())


class TestOrbitProperties:
    @settings(max_examples=150, deadline=None)
    @given(_rational_case())
    def test_matches_sweep(self, case):
        G, F, r, with_involution, nontrivial = case
        classes = enumerate_root_classes(G, F, r)
        # The sweep applies every group element to every class.
        assume(prod(G.edges[k].stabilizer for k in acting_edges(G, r)) * len(classes) <= 10**5)
        closed = not with_involution or {involution_act(c) for c in classes} <= set(classes)
        if not closed:
            with pytest.raises(OrbitError):
                _orbit_count_by_sweep(G, F, r, with_involution)
            with pytest.raises(OrbitError):
                orbit_count(G, F, r, with_involution, nontrivial=nontrivial)
            return
        assert orbit_count(G, F, r, with_involution, nontrivial=nontrivial) == _sweep_sizes(
            G, F, r, with_involution, nontrivial
        )


BENCH_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def _iterate(f, p, k):
    for _ in range(k):
        p = f(p)
    return p


def _elliptic_orbits_by_walk(r, aut_order):
    """Orbits of the nonzero points of (Z/r)^2 under the generator, by
    walking each orbit, checked against a pointwise Burnside sum."""
    (a, b), (c, d) = orbits._TORSION_GENERATORS[aut_order]

    def act(p):
        x, y = p
        return ((a * x + b * y) % r, (c * x + d * y) % r)

    points = [(x, y) for x in range(r) for y in range(r) if (x, y) != (0, 0)]
    seen = set()
    count = 0
    for p in points:
        if p in seen:
            continue
        count += 1
        q = p
        while q not in seen:
            seen.add(q)
            q = act(q)
    fixed_total = sum(
        1 for k in range(aut_order) for p in points if _iterate(act, p, k) == p
    )
    assert fixed_total == aut_order * count
    return count


class TestEllipticOrbits:
    @pytest.mark.parametrize(
        "r,aut,expected",
        [(11, 2, 60), (11, 4, 30), (11, 6, 20), (5, 2, 12), (5, 4, 6), (5, 6, 4)],
    )
    def test_counts(self, r, aut, expected):
        assert elliptic_torsion_orbits(r, aut) == expected
        assert expected == (r * r - 1) // aut

    @pytest.mark.parametrize("aut", [2, 4, 6])
    @pytest.mark.parametrize("r", BENCH_PRIMES)
    def test_matches_walk(self, r, aut):
        assert elliptic_torsion_orbits(r, aut) == _elliptic_orbits_by_walk(r, aut)

    def test_bad_aut_order(self):
        with pytest.raises(BadAutOrder):
            elliptic_torsion_orbits(5, 3)

    def test_bad_r(self):
        with pytest.raises(BadR):
            elliptic_torsion_orbits(9, 2)
        with pytest.raises(BadR):
            elliptic_torsion_orbits(3, 2)


class TestRiemannHurwitz:
    def test_eleven(self):
        assert riemann_hurwitz_chi(60, [30, 20, 10]) == 0

    def test_unramified(self):
        assert riemann_hurwitz_chi(12, []) == 24

    def test_five(self):
        assert riemann_hurwitz_chi(12, [6, 4, 4]) == 2

    def test_fibre_bound(self):
        with pytest.raises(FibreExceedsDegree):
            riemann_hurwitz_chi(4, [5])


class TestNrReport:
    def test_eleven(self):
        rep = nr_report(11)
        assert (rep.degree, rep.n_j1728, rep.n_j0, rep.n_cusp) == (60, 30, 20, 10)
        assert rep.euler == 0 and rep.genus_nr == 1

    @pytest.mark.parametrize("r", BENCH_PRIMES)
    def test_genus_closed_form(self, r):
        rep = nr_report(r)
        assert rep.n_cusp == r - 1
        assert rep.genus_nr == (r - 5) * (r - 7) // 24
        assert rep.euler == -rep.degree + rep.n_j1728 + rep.n_j0 + rep.n_cusp
        assert rep.genus_nr == 1 - rep.euler // 2

    @pytest.mark.parametrize("r", [5, 7, 11, 13])
    def test_cusp_matches_sweep(self, r):
        G = pointed_loop(r)
        F = omega_bundle(G, 1)
        classes = _nontrivial(enumerate_root_classes(G, F, r))
        n, _ = _orbit_count_by_sweep(G, F, r, with_involution=True, classes=classes)
        assert nr_report(r).n_cusp == n

    @pytest.mark.parametrize("r", BENCH_PRIMES)
    def test_cusp_matches_orbit_count(self, r):
        G = orbits._cusp_fixture(r)
        n, _ = orbit_count(G, omega_bundle(G, 1), r, True, nontrivial=True)
        assert nr_report(r).n_cusp == n

    def test_builds_no_root_classes(self):
        # orbits cannot reach the class-level oracles at all
        # (tests/test_package.py), so this pins the genus alone.
        assert nr_report(31).genus_nr == 26

    def test_bad_r(self):
        with pytest.raises(BadR):
            nr_report(4)
        with pytest.raises(BadR):
            nr_report(3)


class TestBurnsideOracle:
    """orbit_count against the oracle's Burnside count, on inputs past the
    reach of the class-by-class sweep (10^5 group element x class steps)."""

    @pytest.mark.parametrize("with_involution", [False, True])
    @pytest.mark.parametrize("l", [8, 12, 20])
    def test_theta_at_full_stabilizer(self, l, with_involution):
        # Three edges of stabilizer l at r = l: l^2 multiplicity vectors of
        # the trivial class and l^4 classes (160,000 at l = 20).  The
        # trivial class is a root, so nontrivial drops one orbit.
        G = theta(l)
        F = trivial_bundle(G)
        total = burnside_orbit_count(G, F, l, with_involution)
        assert orbit_count(G, F, l, with_involution)[0] == total
        assert orbit_count(G, F, l, with_involution, nontrivial=True)[0] == total - 1
        if (l, with_involution) == (20, False):
            assert total == 1960

    @pytest.mark.parametrize("r", BENCH_PRIMES)
    def test_cusp_fixture(self, r):
        G = orbits._cusp_fixture(r)
        F = omega_bundle(G, 1)
        for with_involution in (False, True):
            for nontrivial in (False, True):
                expected = burnside_orbit_count(G, F, r, with_involution, nontrivial=nontrivial)
                n, _ = orbit_count(G, F, r, with_involution, nontrivial=nontrivial)
                assert n == expected
        assert nr_report(r).n_cusp == burnside_orbit_count(G, F, r, True, nontrivial=True)


class TestCondCheck:
    def test_spin_profile_passes(self):
        assert cond_check(2, 2, MultiIndex.of([2, 2]), 1)

    def test_partial_profile_fails(self):
        assert not cond_check(2, 2, MultiIndex.of([2, 1]), 1)

    def test_trivial_profile_fails(self):
        for g, r in ((2, 2), (3, 2), (4, 3)):
            if (2 * g - 2) % r:
                continue
            l = MultiIndex.of([1] * (g // 2 + 1))
            assert not cond_check(g, r, l, 1)

    def test_structure_sheaf_only_needs_l0(self):
        assert cond_check(2, 2, MultiIndex.of([2, 1]), 0)
        assert not cond_check(2, 2, MultiIndex.of([1, 2]), 0)

    def test_hypothesis(self):
        with pytest.raises(HypothesisViolated):
            cond_check(2, 3, MultiIndex.of([3, 3]), 1)


class TestVerifyCond:
    def test_equivalence_point(self):
        rep = verify_cond(2, 2, MultiIndex.of([2, 2]), 1)
        assert rep.equivalent and rep.condition and rep.all_maximal

    def test_witness_when_condition_fails(self):
        rep = verify_cond(2, 2, MultiIndex.of([2, 1]), 1)
        assert rep.equivalent and not rep.condition
        assert rep.witnesses
        counts = {n for _, n in rep.witnesses}
        assert 0 in counts  # the two-component bridge shape has no roots

    def test_trivial_profile_witness(self):
        rep = verify_cond(2, 2, MultiIndex.of([1, 1]), 1)
        assert rep.equivalent and not rep.condition
        # irreducible one-node shape yields r^(2g-1) = 8, not 16
        assert any(n == 8 for _, n in rep.witnesses)


class TestAutOrderRatio:
    def test_no_nodes(self):
        assert aut_order_ratio(5, []) == 1

    def test_examples(self):
        assert aut_order_ratio(4, [2, 2]) == 4
        assert aut_order_ratio(2, [2]) == 1
        assert aut_order_ratio(3, [2, 6]) == Fraction(9, 12)

    def test_bad_stabilizer(self):
        with pytest.raises(OrbitError):
            aut_order_ratio(2, [0])

    @pytest.mark.parametrize("r", [0, -3])
    def test_bad_order(self, r):
        # Checked even without nodes, where r^0 / 1 = 1 would hide it.
        for ds in ([2], []):
            with pytest.raises(OrbitError, match=f"order {r} < 1"):
                aut_order_ratio(r, ds)
