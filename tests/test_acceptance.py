"""Acceptance suite.

One test per acceptance criterion, in order; each asserts the exact
expected values (and the stated runtime budget where one is given).  The
terminal summary prints one PASS/FAIL line per criterion.
"""

import itertools
import random
import time
from math import gcd

import pytest

from twistcount.exactalg import CyclicHom, hom_image_contains, kernel_size_by_smith
from twistcount.graphs import (
    MultiIndex,
    classify_node,
    dual_graph,
    enumerate_stable_graphs,
    flip_edge,
    genus,
)
from twistcount.oracles import enumerate_root_classes
from twistcount.orbits import (
    nr_report,
    orbit_count,
    redecorate,
    verify_cond,
)
from twistcount.picard import (
    count_roots,
    delta_embed,
    delta_image_lift,
    delta_image_member,
    enumerate_discrete_roots,
    flip_bundle_edge,
    omega_bundle,
    random_bundle,
    root_count_criterion,
    rth_power,
    split_coprime,
    combine_coprime,
    torsion_count,
    total_degree,
    trivial_bundle,
    verify_rootsnum,
)

STABILIZERS = (1, 2, 3, 4, 6)
ORDERS = (2, 3, 4, 6)


@pytest.fixture(scope="module")
def stable_shapes():
    return {g: enumerate_stable_graphs(g, 0, (1,)) for g in (2, 3)}


@pytest.fixture(scope="module")
def decorated_family():
    return {g: enumerate_stable_graphs(g, 0, STABILIZERS) for g in (2, 3)}


def test_c01_torsion_closed_form(stable_shapes):
    start = time.monotonic()
    checked = 0
    for g in (2, 3):
        for G in stable_shapes[g]:
            for r in (2, 3, 4, 5, 6):
                expected = r ** (2 * g - 1 + G.n_vertices - G.n_edges)
                assert torsion_count(G, r) == expected
                checked += 1
    elapsed = time.monotonic() - start
    assert checked == (7 + 42) * 5
    assert elapsed < 10.0


def test_c02_no_roots_on_stable_bridge():
    for g in (2, 3, 4):
        G = dual_graph([g - 1, 1], [(0, 1, 1)])
        F = omega_bundle(G, 1)
        for r in (2, 3, 4, 5, 6):
            if (2 * g - 2) % r:
                continue
            assert count_roots(G, F, r) == 0


def test_c03_rootsnum_equivalence(decorated_family):
    start = time.monotonic()
    total_checked = 0
    for g in (2, 3):
        discrepancies, checked = verify_rootsnum(
            decorated_family[g], ORDERS, n_random=50, seed=1729
        )
        assert discrepancies == []
        total_checked += checked
    elapsed = time.monotonic() - start
    assert total_checked > 6_000_000
    assert elapsed < 300.0


def _boundary_hom(n_vertices, edges, r):
    matrix = [[0] * len(edges) for _ in range(n_vertices)]
    moduli = []
    for k, (tail, head, l) in enumerate(edges):
        h = gcd(l, r)
        moduli.append(h)
        w = r // h
        matrix[head][k] += w
        matrix[tail][k] -= w
    return CyclicHom.of(matrix, moduli, [r] * n_vertices)


def test_c04_kernel_laws(decorated_family):
    start = time.monotonic()
    cache = {}

    def kernel(n_vertices, edges, r):
        key = (n_vertices, edges, r)
        if key not in cache:
            cache[key] = kernel_size_by_smith(_boundary_hom(n_vertices, edges, r))
        return cache[key]

    for g in (2, 3):
        for G in decorated_family[g]:
            edges = tuple((e.tail, e.head, e.stabilizer) for e in G.edges)
            nonsep = [
                k for k in range(G.n_edges) if not classify_node(G, k).separating
            ]
            b1 = 1 - G.n_vertices + G.n_edges
            for r in ORDERS:
                size = kernel(G.n_vertices, edges, r)
                divisible = all(edges[k][2] % r == 0 for k in nonsep)
                # kernel size law: maximal exactly under divisibility
                assert (size == r**b1) == divisible
                # deletion recursion: exact in the divisible regime, an
                # upper bound in general
                for k in nonsep:
                    sub = kernel(
                        G.n_vertices, tuple(e for i, e in enumerate(edges) if i != k), r
                    )
                    factor = gcd(r, edges[k][2])
                    if divisible:
                        assert size == sub * factor
                    else:
                        assert size <= sub * factor
    elapsed = time.monotonic() - start
    assert elapsed < 120.0


def test_c05_stability_profile_sweeps():
    start = time.monotonic()
    for g, r, k in ((2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 0)):
        width = g // 2 + 1
        for entries in itertools.product(range(1, 2 * r + 1), repeat=width):
            report = verify_cond(g, r, MultiIndex.of(entries), k)
            assert report.equivalent
            if not report.condition:
                assert report.witnesses
    elapsed = time.monotonic() - start
    assert elapsed < 300.0


def test_c06_square_roots_on_pointed_loop():
    G = dual_graph([(0, [1])], [(0, 0, 2)])
    F = omega_bundle(G, 1)
    classes = enumerate_root_classes(G, F, 2)
    assert len(classes) == 4
    assert orbit_count(G, F, 2) == (3, [2, 1, 1])


@pytest.mark.parametrize("r", [5, 7, 11, 13])
def test_c07_nodal_orbit_count_with_involution(r):
    G = dual_graph([(0, [1])], [(0, 0, r)])
    F = omega_bundle(G, 1)
    classes = enumerate_root_classes(G, F, r)
    assert len(classes) == r * r
    n, _ = orbit_count(G, F, r, with_involution=True, nontrivial=True)
    assert n == r - 1


def test_c08_spin_cover_reports():
    rep = nr_report(11)
    assert (rep.degree, rep.n_j1728, rep.n_j0, rep.n_cusp) == (60, 30, 20, 10)
    assert rep.euler == 0 and rep.genus_nr == 1
    for r in (5, 7, 11, 13, 17, 19, 23):
        start = time.monotonic()
        rep = nr_report(r)
        elapsed = time.monotonic() - start
        assert rep.genus_nr == (r - 5) * (r - 7) // 24
        assert elapsed < 1.0


def test_c09_boundary_membership_and_lift(stable_shapes):
    rng = random.Random(99)
    shapes = stable_shapes[2] + stable_shapes[3]
    checked = 0
    while checked < 500:
        shape = rng.choice(shapes)
        r = rng.choice((2, 3))
        edges = []
        for k, e in enumerate(shape.edges):
            if classify_node(shape, k).separating:
                stab = rng.choice((1, 2, 3, 4))
            else:
                stab = r * rng.choice((1, 2))
            edges.append((e.tail, e.head, stab))
        G = dual_graph([(v.genus, v.legs) for v in shape.vertices], edges)
        t = [rng.randrange(r) for _ in range(G.n_vertices)]
        t[-1] = (t[-1] - sum(t)) % r
        t = tuple(t)
        checked += 1
        expected, _ = hom_image_contains(delta_embed(G, r), t)
        member = delta_image_member(G, r, t)
        assert member == expected
        lift = delta_image_lift(G, r, t)
        if member:
            assert delta_embed(G, r).apply(lift) == t
        else:
            assert lift is None
    assert checked == 500


def test_c10_coprime_split_bijection():
    rng = random.Random(4)
    shapes = enumerate_stable_graphs(2, 0, (1,))
    graphs_checked = 0
    for r1, r2 in ((2, 3), (3, 4), (2, 5)):
        r = r1 * r2
        for shape in shapes:
            G = redecorate(shape, MultiIndex.of((r, r)))
            graphs_checked += 1
            bundles = [trivial_bundle(G), rth_power(random_bundle(G, rng), r)]
            for F in bundles:
                roots = enumerate_discrete_roots(G, F, r)
                roots1 = set(enumerate_discrete_roots(G, F, r1))
                roots2 = set(enumerate_discrete_roots(G, F, r2))
                assert roots
                images = set()
                for L in roots:
                    L1, L2 = split_coprime(L, r1, r2)
                    assert L1 in roots1 and L2 in roots2
                    assert combine_coprime(L1, L2, r1, r2) == L
                    images.add((L1, L2))
                # the split is a bijection onto the product of root sets
                assert len(images) == len(roots)
                assert images == set(itertools.product(roots1, roots2))
    assert graphs_checked == 21


def test_c11_orientation_independence(decorated_family, stable_shapes):
    rng = random.Random(2024)
    flips = 0
    pool = decorated_family[2] + decorated_family[3]
    bridge_fixtures = [dual_graph([g - 1, 1], [(0, 1, 1)]) for g in (2, 3, 4)]
    profile_graphs = [
        redecorate(shape, MultiIndex.of((2, 2))) for shape in stable_shapes[2]
    ]
    while flips < 100:
        bucket = flips % 4
        if bucket == 0:
            G = rng.choice(stable_shapes[2] + stable_shapes[3])
        elif bucket == 1:
            G = rng.choice(bridge_fixtures)
        elif bucket == 2:
            G = rng.choice(pool)
        else:
            G = rng.choice(profile_graphs)
        if not G.n_edges:
            continue
        e = rng.randrange(G.n_edges)
        r = rng.choice(ORDERS)
        flips += 1
        flipped = flip_edge(G, e)
        # torsion and kernel data (criteria 1 and 4)
        assert torsion_count(G, r) == torsion_count(flipped, r)
        # root counts and the criterion (criteria 2, 3, 5)
        F = omega_bundle(G, 1)
        F_flip = omega_bundle(flipped, 1)
        assert count_roots(G, F, r) == count_roots(flipped, F_flip, r)
        R = random_bundle(G, rng, r)
        R_flip = flip_bundle_edge(R, e)
        assert R_flip.graph == flipped
        assert count_roots(G, R, r) == count_roots(flipped, R_flip, r)
        assert total_degree(R) == total_degree(R_flip)
        passed, _ = root_count_criterion(G, R, r)
        passed_flip, _ = root_count_criterion(flipped, R_flip, r)
        assert passed == passed_flip
    assert flips == 100


def test_c12_rootsnum_equivalence_genus_four():
    # The c03 check over the genus-4 family with stabilizers {1, 2}, as
    # `tc verify-rootsnum -g 4 --stabilizers 1,2` runs it, on two workers
    # where the machine has two CPUs.
    start = time.monotonic()
    family = enumerate_stable_graphs(4, 0, (1, 2))
    discrepancies, checked = verify_rootsnum(family, ORDERS, n_random=50, seed=0, jobs=2)
    elapsed = time.monotonic() - start
    assert (len(family), checked, discrepancies) == (18505, 3_923_060, [])
    assert elapsed < 120.0
