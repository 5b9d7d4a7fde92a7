import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcount import exactalg, picard
from twistcount.exactalg import (
    _match_count,
    hom_image_contains,
    kernel_size_by_enumeration,
    kernel_size_by_smith,
    solve_congruence,
)
from twistcount.graphs import (
    DualGraph,
    Edge,
    betti,
    classify_node,
    dual_graph,
    enumerate_stable_graphs,
    flip_edge,
    genus,
)
from twistcount.picard import (
    GRAPH_CACHE_SIZE,
    AugmentationNonzero,
    DomainTooLarge,
    GraphMismatch,
    HypothesisViolated,
    LineBundleData,
    NotCoprime,
    RootCounter,
    RootMismatch,
    RootsnumRecord,
    check_rootsnum_graph,
    combine_coprime,
    construct_root,
    count_roots,
    count_roots_by_fractions,
    delta_embed,
    delta_image_lift,
    delta_image_member,
    enumerate_discrete_roots,
    flip_bundle_edge,
    line_bundle,
    omega_bundle,
    power,
    random_bundle,
    root_count_criterion,
    rth_power,
    split_coprime,
    tensor,
    torsion_count,
    total_degree,
    trivial_bundle,
    verify_rootsnum,
    vertex_degree,
)


def pointed_loop(l=2):
    return dual_graph([(0, [1])], [(0, 0, l)])


def two_bridge(g, l=1):
    return dual_graph([g - 1, 1], [(0, 1, l)])


class TestRandomDraws:
    @pytest.mark.parametrize("seed", [0, 1, 7, "2:x"])
    def test_draws_match_randrange(self, seed):
        ours, reference = random.Random(seed), random.Random(seed)
        stabs = tuple(range(1, 13)) + (10**12, 2**64)
        for n_vertices in range(20):
            int_part, mult = picard._draw(ours, stabs, n_vertices)
            assert mult == tuple(reference.randrange(l) for l in stabs)
            assert int_part == tuple(reference.randrange(-3, 4) for _ in range(n_vertices))
        assert ours.getstate() == reference.getstate()

    def test_random_bundle_stream_unchanged(self):
        ours, reference = random.Random(11), random.Random(11)
        for G in enumerate_stable_graphs(2, 0, [1, 2, 3, 4, 6])[::7]:
            assert random_bundle(G, ours) == _randrange_bundle(G, reference)
        assert ours.getstate() == reference.getstate()


class TestDegrees:
    def test_omega_on_pointed_loop(self):
        G = pointed_loop(2)
        F = omega_bundle(G, 1)
        assert F.int_part == (0,) and F.mult == (0,)
        assert total_degree(F) == 0

    def test_omega_on_two_component_graph(self):
        for g in (2, 3, 5):
            G = two_bridge(g)
            F = omega_bundle(G, 1)
            assert F.int_part == (2 * g - 3, 1)
            assert total_degree(F) == 2 * g - 2

    def test_structure_sheaf(self):
        G = pointed_loop(3)
        F = omega_bundle(G, 0)
        assert F == trivial_bundle(G)

    def test_marking_twist(self):
        G = dual_graph([(1, [1, 2])], [])
        F = omega_bundle(G, 2, {1: 3, 2: 1})
        assert total_degree(F) == 2 * (2 * 1 - 2) - 4

    def test_unknown_marking_rejected(self):
        with pytest.raises(GraphMismatch):
            omega_bundle(pointed_loop(), 1, {42: 1})

    def test_loop_multiplicity_degree(self):
        G = dual_graph([(0, [1])], [(0, 0, 2)])
        L = line_bundle(G, [0], [1])
        assert vertex_degree(L, 0) == 1
        assert total_degree(L) == 1

    def test_bridge_fractional_degrees(self):
        G = dual_graph([1, 1], [(0, 1, 3)])
        L = line_bundle(G, [0, 0], [1])
        assert vertex_degree(L, 1) == Fraction(1, 3)  # head side
        assert vertex_degree(L, 0) == Fraction(2, 3)  # tail side
        assert total_degree(L) == 1

    def test_mult_bounds_checked(self):
        with pytest.raises(Exception):
            line_bundle(pointed_loop(2), [0], [2])

    def test_degree_minus_branch_fractions_is_integral(self):
        rng = random.Random(2)
        for G in enumerate_stable_graphs(2, 0, [1, 2, 3])[:30]:
            L = random_bundle(G, rng)
            for v in range(G.n_vertices):
                frac = Fraction(0)
                for e, is_head in G.incidences(v):
                    l = G.edges[e].stabilizer
                    m = L.mult[e] if is_head else L.tail_mult(e)
                    frac += Fraction(m, l)
                assert (vertex_degree(L, v) - frac).denominator == 1


class TestTensorAndPowers:
    def test_rth_power_scales_degrees(self):
        G = pointed_loop(2)
        L = line_bundle(G, [0], [1])
        sq = rth_power(L, 2)
        assert sq.mult == (0,)
        assert vertex_degree(sq, 0) == 2

    def test_power_identity(self):
        G = two_bridge(3, 4)
        L = line_bundle(G, [1, 0], [3])
        assert rth_power(L, 1) == L

    def test_power_composition(self):
        G = dual_graph([0, 0], [(0, 1, 6), (0, 1, 4)])
        L = line_bundle(G, [2, -1], [5, 1])
        for a in (2, 3):
            for b in (2, 5):
                assert power(power(L, a), b) == power(L, a * b)

    def test_bridge_cube(self):
        G = dual_graph([1, 1], [(0, 1, 3)])
        L = line_bundle(G, [0, 0], [1])
        cube = rth_power(L, 3)
        assert cube.mult == (0,)
        assert cube.int_part == (2, 1)  # tail side 3*(2/3), head side 3*(1/3)

    def test_tensor_adds(self):
        G = pointed_loop(4)
        a = line_bundle(G, [0], [3])
        b = line_bundle(G, [1], [2])
        c = tensor(a, b)
        assert c.mult == ((3 + 2) % 4,)
        assert vertex_degree(c, 0) == vertex_degree(a, 0) + vertex_degree(b, 0)

    def test_tensor_graph_mismatch(self):
        with pytest.raises(GraphMismatch):
            tensor(trivial_bundle(pointed_loop(2)), trivial_bundle(pointed_loop(3)))


class TestDeltaEmbed:
    def test_loop_gives_zero_column(self):
        for l, r in ((1, 2), (2, 2), (3, 6)):
            h = delta_embed(pointed_loop(l), r)
            assert all(row == (0,) for row in h.matrix)
            assert h.domain_moduli == (gcd(l, r),)

    def test_bridge_full_stabilizer(self):
        G = dual_graph([1, 1], [(0, 1, 3)])
        h = delta_embed(G, 3)
        assert h.domain_moduli == (3,)
        assert [row[0] for row in h.matrix] == [-1, 1]

    def test_bridge_partial_stabilizer(self):
        G = dual_graph([1, 1], [(0, 1, 2)])
        h = delta_embed(G, 4)
        assert h.domain_moduli == (2,)
        assert [row[0] for row in h.matrix] == [-2, 2]

    def test_matches_cyclic_hom_of(self):
        for G, r in _decorated_shapes_and_orders():
            assert delta_embed(G, r) == _delta_embed_raw(G, r)

    def test_kernel_oracle_independent_of_smith_normal_form(self, monkeypatch):
        # The oracle must not share the Smith reduction behind torsion_count:
        # with exactalg's smith_normal_form broken it still agrees with the
        # torsion count, which picard reads through its own import.
        def broken(A):
            raise AssertionError("the kernel oracle called smith_normal_form")

        monkeypatch.setattr(exactalg, "smith_normal_form", broken)
        for G, r in _decorated_shapes_and_orders():
            free = r ** (2 * genus(G) - 1 + G.n_vertices - G.n_edges)
            assert free * kernel_size_by_smith(delta_embed(G, r)) == torsion_count(G, r)


def _decorated_shapes_and_orders():
    """Every genus-2/3 shape, decorated with each uniform stabilizer and two
    seeded mixed ones, paired with each order in {2, 3, 4, 6, 12}."""
    rng = random.Random(5)
    stabs = (1, 2, 3, 4, 6, 12)
    for g in (2, 3):
        for shape in enumerate_stable_graphs(g, 0, [1]):
            decorations = [(l,) * shape.n_edges for l in stabs]
            decorations += [
                tuple(rng.choice(stabs) for _ in shape.edges) for _ in range(2)
            ]
            for ls in decorations:
                edges = tuple(Edge(e.tail, e.head, l) for e, l in zip(shape.edges, ls))
                G = DualGraph(shape.vertices, edges)
                for r in (2, 3, 4, 6, 12):
                    yield G, r


class TestTorsionCount:
    def test_smooth(self):
        for g in (1, 2, 3):
            for r in (2, 3, 5):
                assert torsion_count(dual_graph([(g, [1])]), r) == r ** (2 * g)

    def test_irreducible_one_node(self):
        for g0 in (0, 1, 2):
            G = dual_graph([(g0, [1])], [(0, 0, 1)])
            g = g0 + 1
            for r in (2, 3, 4):
                assert torsion_count(G, r) == r ** (2 * g - 1)

    def test_pointed_loop_full_stabilizer(self):
        assert torsion_count(pointed_loop(2), 2) == 4

    def test_closed_form_on_stable_graphs(self):
        for g in (2, 3):
            for G in enumerate_stable_graphs(g, 0, [1]):
                for r in (2, 3, 4, 5, 6):
                    assert torsion_count(G, r) == r ** (
                        2 * g - 1 + G.n_vertices - G.n_edges
                    )


class TestCountRoots:
    def test_no_roots_on_stable_two_component(self):
        for g in (2, 3, 4):
            G = two_bridge(g)
            F = omega_bundle(G, 1)
            for r in (2, 3, 4, 5, 6):
                if (2 * g - 2) % r == 0:
                    assert count_roots(G, F, r) == 0

    def test_full_roots_with_matching_stabilizer(self):
        for g, r in ((2, 2), (3, 2), (3, 4), (4, 3)):
            if (2 * g - 2) % r:
                continue
            G = two_bridge(g, r)
            assert count_roots(G, omega_bundle(G, 1), r) == r ** (2 * g)

    def test_pointed_loop_counts(self):
        for r in (2, 3, 5):
            G = pointed_loop(r)
            assert count_roots(G, omega_bundle(G, 1), r) == r * r

    def test_huge_stabilizer_costs_nothing_per_unit(self):
        # Counts never sweep Z/l: a loop with l = 10^12 answers at once, as
        # the same loop with l = 4 does (gcd(l, r) = 2 for both).
        small = dual_graph([1], [(0, 0, 4)])
        huge = dual_graph([1], [(0, 0, 10**12)])
        assert torsion_count(huge, 6) == torsion_count(small, 6) == 432
        for G in (small, huge):
            assert count_roots(G, omega_bundle(G, 1), 2) == 16

    def test_torsor_contract(self):
        rng = random.Random(9)
        for G in enumerate_stable_graphs(2, 0, [1, 2, 4])[:60]:
            for r in (2, 4):
                full = torsion_count(G, r)
                for _ in range(5):
                    F = random_bundle(G, rng, r)
                    assert count_roots(G, F, r) in (0, full)

    def test_agrees_with_fraction_sweep(self):
        rng = random.Random(13)
        checked = 0
        for G in enumerate_stable_graphs(2, 0, [1, 2, 3, 6])[:80]:
            for r in (2, 3, 6):
                F = random_bundle(G, rng, r)
                counter = RootCounter(G, r)
                if counter.domain_size > 500:
                    continue
                checked += 1
                assert count_roots(G, F, r) == count_roots_by_fractions(G, F, r)
        assert checked > 50

    def test_count_zero_off_hypothesis(self):
        G = pointed_loop(3)
        L = line_bundle(G, [1], [0])  # total degree 1
        assert total_degree(L) % 3 != 0
        assert count_roots(G, L, 3) == 0

    def test_wide_domain_counted_by_smith(self):
        # Seven loops with l = 12 at r = 12: every x in the 12^7 domain is a
        # root, times the free factor 12^7.  No sweep of the domain runs.
        G = dual_graph([(0, [1])], [(0, 0, 12)] * 7)
        counter = RootCounter(G, 12)
        assert counter.domain_size == 12**7
        assert counter.count(trivial_bundle(G)) == 12**14 == torsion_count(G, 12)

    def test_count_roots_reuses_counters(self):
        picard._counter.cache_clear()
        G = two_bridge(3, 4)
        F = omega_bundle(G, 1)
        counts = {count_roots(G, F, 4) for _ in range(3)}
        assert counts == {4**6}
        info = picard._counter.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (1, 2, GRAPH_CACHE_SIZE)

    def test_root_basis_checked_against_smith(self, monkeypatch):
        # The triangular basis spans prod h_e/p_e points of the box, which
        # must be the Smith count; it is built once per counter.
        G = dual_graph([0, 0], [(0, 1, 4), (0, 1, 4), (0, 1, 2)])
        counter = RootCounter(G, 4)
        F = trivial_bundle(G)
        assert len(counter.solutions(F)) == counter.solution_count((0, 0)) == 8
        # x_0 + x_1 + 2 x_2 = 0 (mod 4): b_0 = (1, 3, 0), b_1 = (0, 2, 1), b_2 = (0, 0, 2).
        assert counter._basis == ((1, ((1, 3),)), (2, ((2, 1),)), (2, ()))
        wrong = RootCounter(G, 4)
        monkeypatch.setattr(wrong.smith, "kernel_size", 9)
        with pytest.raises(picard.PicardError, match="the root basis spans 8 points"):
            wrong.solutions(F)

    def test_one_smith_reduction_per_graph_and_order(self, monkeypatch):
        # A bridge (edge 0) and a two-edge cycle: torsion, counts, root
        # lists, constructed roots and lifts all read one reduction.
        G = dual_graph([1, 0, 1], [(0, 1, 2), (1, 2, 4), (1, 2, 4)])
        r = 4
        F = rth_power(line_bundle(G, [1, 0, -1], [1, 2, 3]), r)
        picard._counter.cache_clear()
        calls = []
        reduce = picard.smith_normal_form

        def counting(A):
            calls.append(A)
            return reduce(A)

        monkeypatch.setattr(picard, "smith_normal_form", counting)
        assert torsion_count(G, r) == r**5 * 4
        assert count_roots(G, F, r) == torsion_count(G, r)
        roots = enumerate_discrete_roots(G, F, r)
        assert len(roots) * r**5 == count_roots(G, F, r)
        assert construct_root(G, F, r) in roots
        for t in ((0, 0, 0), (2, 1, 1), (1, 1, 2), (1, 0, 3)):
            lift = delta_image_lift(G, r, t)
            if delta_image_member(G, r, t):
                assert delta_embed(G, r).apply(lift) == t
            else:
                assert lift is None
        assert len(calls) == 1

    def test_domain_cap(self):
        # 25 discrete roots: listing them is capped, counting them is not.
        G = dual_graph([0, 0], [(0, 1, 5)] * 3)
        F = trivial_bundle(G)
        with pytest.raises(DomainTooLarge):
            enumerate_discrete_roots(G, F, 5, max_domain=10)
        assert len(enumerate_discrete_roots(G, F, 5, max_domain=25)) == 25
        assert count_roots(G, F, 5) == 5**2 * 25 == torsion_count(G, 5)


def _kernel_by_closure(smith):
    """Every element of ker M, as the closure of its generators under
    addition: column i of V scaled by r/m_i (by 1 past the rows) on the
    reduced columns, and the unit vector of each zero column with h_e > 1,
    mod h_e.  Checked against the Smith count."""
    hs, r, cols = smith.hs, smith.r, smith.cols
    ne, n = len(hs), len(cols)
    scales = [r // m for m in smith.mods[:n]] + [1] * (n - len(smith.mods))
    gens = []
    for i, s in enumerate(scales):
        g = [0] * ne
        for k, row in zip(cols, smith.V):
            g[k] = s * row[i] % hs[k]
        gens.append(tuple(g))
    free = [k for k, h in enumerate(hs) if h > 1 and k not in cols]
    gens += [tuple(int(j == k) for j in range(ne)) for k in free]
    elements = [(0,) * ne]
    members = set(elements)
    for g in gens:
        step = g
        subgroup = list(elements)
        while step not in members:
            for x in subgroup:
                y = tuple((a + b) % h for a, b, h in zip(x, step, hs))
                members.add(y)
                elements.append(y)
            step = tuple((a + b) % h for a, b, h in zip(step, g, hs))
    assert len(elements) == smith.kernel_size
    return elements


def _solutions_by_closure(counter, mu0, x0):
    """Accepted multiplicity vectors from the kernel closure translated by
    x0, in sorted order: the root walk's oracle."""
    coset = sorted(
        tuple((a + b) % h for a, b, h in zip(x0, k, counter.hs))
        for k in _kernel_by_closure(counter.smith)
    )
    return [counter._mult(mu0, x) for x in coset]


def _graph_with_loops(rng):
    """A random connected graph on 1-3 vertices: a path, a few more edges
    and 1-3 loops, in shuffled order, stabilizers from {1, 2, 3, 4, 6, 12}."""
    n = rng.randint(1, 3)
    pairs = [(v, v + 1) for v in range(n - 1)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2)) if n > 1]
    pairs += [(v, v) for v in rng.choices(range(n), k=rng.randint(1, 3))]
    rng.shuffle(pairs)
    stabs = (1, 2, 3, 4, 6, 12)
    edges = [(t, h, rng.choice(stabs)) for t, h in pairs]
    return dual_graph([rng.randint(0, 1) for _ in range(n)], edges)


class TestLoopsOutsideSmith:
    def test_smith_paths_against_oracles(self):
        # A loop's column of the boundary map is zero, so only the other
        # columns are reduced: loops are 0 in every witness and free in
        # the kernel, whose size is still the relation lattice's.
        rng = random.Random(2026)
        checked = 0
        for _ in range(150):
            G = _graph_with_loops(rng)
            r = rng.choice((2, 3, 4, 6))
            counter = RootCounter(G, r)
            smith = counter.smith
            loops = [k for k, e in enumerate(G.edges) if e.tail == e.head]
            assert smith.cols == [k for k in range(G.n_edges) if k not in loops]
            hom = delta_embed(G, r)
            assert smith.kernel_size == kernel_size_by_smith(hom)
            F = random_bundle(G, rng, r)
            assert count_roots(G, F, r) == count_roots_by_fractions(G, F, r, max_domain=10**5)
            if counter.domain_size > 2000:
                continue
            checked += 1
            domain = list(itertools.product(*(range(h) for h in counter.hs)))
            zero = (0,) * G.n_vertices
            assert sorted(_kernel_by_closure(smith)) == [x for x in domain if hom.apply(x) == zero]
            image = {hom.apply(x) for x in domain}
            for _ in range(6):
                t = tuple(rng.randrange(-r, 2 * r) for _ in G.vertices)
                member = tuple(a % r for a in t) in image
                assert smith.contains(t) == member
                if member:
                    x = smith.witness(t)
                    assert hom.apply(x) == tuple(a % r for a in t)
                    assert [x[k] for k in loops] == [0] * len(loops)
        assert checked > 100


def _kernel_size_pairs():
    """(G, r) over the genus-2 {1, 2, 3, 4, 6} and genus-3 {1, 2} families,
    one-vertex graphs of loops and seeded graphs with loops, every order
    from r = 1 up."""
    for G in enumerate_stable_graphs(2, 0, [1, 2, 3, 4, 6]):
        for r in (1, 2, 3, 4, 6, 12):
            yield G, r
    for G in enumerate_stable_graphs(3, 0, [1, 2]):
        for r in (1, 2, 3, 4, 6):
            yield G, r
    for stabs in ((2,), (2, 3, 4), (6, 6, 1, 12)):
        G = dual_graph([1], [(0, 0, l) for l in stabs])
        for r in (1, 2, 3, 6, 12):
            yield G, r
    rng = random.Random(28)
    for _ in range(150):
        yield _graph_with_loops(rng), rng.choice((1, 2, 3, 4, 6, 12))


class TestKernelSizeFromInvariants:
    def test_matches_the_reduction_and_the_oracle(self):
        # The reduction reads |ker M| off its Smith invariants; the oracle
        # counts the kernel modulo the codomain with no Smith code.
        pairs = 0
        for G, r in _kernel_size_pairs():
            size = RootCounter(G, r).smith.kernel_size
            assert size == kernel_size_by_smith(delta_embed(G, r))
            pairs += 1
        assert pairs == 161 * 6 + 463 * 5 + 3 * 5 + 150


def _check_walk(G, F, r):
    """solutions and enumerate_discrete_roots on (G, F, r) against the
    kernel closure translated by x0 and against _normalized per root;
    returns the accepted multiplicity vectors."""
    counter = RootCounter(G, r)
    mults = counter.solutions(F, 10**4)
    roots = enumerate_discrete_roots(G, F, r, 10**4)
    tails = picard._tail_mults(F)
    assert roots == [picard._normalized(G, F.int_part, F.mult, tails, m, r) for m in mults]
    lift = counter._lift(F)
    if lift is None:
        assert mults == []
    else:
        assert mults == _solutions_by_closure(counter, *lift)
        assert len(mults) == counter.smith.kernel_size
    return mults


# The flow lemma's families: (genus, stabilizers, orders).
_LEMMA_FAMILIES = (
    (2, (1, 2, 3, 4, 6, 12), tuple(range(1, 13))),
    (3, (1, 2, 3, 4, 6), (2, 3, 4, 6)),
    (3, (1, 2, 4, 8), (2, 4, 8, 16)),
)


class TestFlowLemma:
    def test_maximal_kernels_are_the_screened_orders(self):
        # free_factor * |ker M| = r^(2g) exactly when r divides the screen
        # of _edge_sides, the gcd of the nonseparating stabilizers, with
        # |ker M| from the oracle, which shares no code with the Smith
        # reduction.  The sweep settles each order by the screen alone.
        pairs = screened = 0
        for g, stabs, orders in _LEMMA_FAMILIES:
            for G in enumerate_stable_graphs(g, 0, stabs):
                screen = picard._edge_sides(G)[2]
                free_rank = 2 * sum(v.genus for v in G.vertices) + betti(G)
                for r in orders:
                    kernel = kernel_size_by_smith(delta_embed(G, r))
                    maximal = r**free_rank * kernel == r ** (2 * g)
                    assert maximal == (screen % r == 0), (G, r)
                    assert picard._Criterion(G, r).stabilizers_ok == maximal
                    pairs += 1
                    screened += maximal
        assert pairs == 168_672
        assert 0 < screened < pairs


class TestRootWalk:
    def test_walk_against_oracles(self):
        # Random graphs with loops; r = 1 and stabilizers prime to r give
        # h_e = 1 edges.  On small domains the walk also equals the
        # lexicographic sweep of prod Z/h_e.
        rng = random.Random(21)
        swept = listed = 0
        for _ in range(400):
            G = _graph_with_loops(rng)
            r = rng.choice((1, 2, 3, 4, 6, 12))
            if rng.random() < 0.3:
                F = random_bundle(G, rng, r)
            else:
                F = rth_power(random_bundle(G, rng), r)
            mults = _check_walk(G, F, r)
            listed += bool(mults)
            if RootCounter(G, r).domain_size <= 2000:
                swept += 1
                assert mults == _solutions_by_product(G, F, r)
        assert swept > 250 and listed > 250

    @pytest.mark.parametrize(
        "vertices, edges, r, size",
        [
            ([0, 0], [(0, 1, 12)] * 4 + [(0, 0, 4)], 12, 6912),
            ([0], [(0, 0, 2)] * 13, 2, 8192),
            (
                [0, 0, 0],
                [(0, 1, 12), (1, 2, 12), (2, 0, 12), (0, 1, 12), (2, 2, 6), (1, 2, 4)],
                12,
                3456,
            ),
            (
                [0, 1],
                [(0, 1, 6), (0, 1, 12), (1, 1, 12), (0, 1, 1), (0, 0, 6), (0, 1, 12)],
                12,
                5184,
            ),
        ],
        ids=["parallel", "loops", "triangle", "mixed"],
    )
    def test_wide_kernels_against_closure(self, vertices, edges, r, size):
        G = dual_graph(vertices, edges)
        counter = RootCounter(G, r)
        assert counter.smith.kernel_size == size
        rng = random.Random(size)
        for F in (trivial_bundle(G), rth_power(random_bundle(G, rng), r)):
            assert len(_check_walk(G, F, r)) == size

    def test_many_loops_listed_without_recursion(self):
        # 2,001 loops of stabilizer 1 at r = 2: one root, found by a walk
        # 2,001 edges deep, past the default recursion limit.
        G = dual_graph([0], [(0, 0, 1)] * 2001)
        F = omega_bundle(G, 1)
        roots = enumerate_discrete_roots(G, F, 2)
        assert [R.int_part for R in roots] == [(2000,)]
        assert roots[0].mult == (0,) * 2001

    def test_negative_cap_is_refused(self):
        # A cap below 0 is an error in itself, with or without roots, not
        # a refusal of too many roots.
        G = pointed_loop(2)
        counter = RootCounter(G, 2)
        for F in (trivial_bundle(G), line_bundle(G, [1], [0])):
            negative = "cap -1 on discrete roots is negative"
            with pytest.raises(picard.PicardError, match=negative) as exc:
                counter.solutions(F, -1)
            assert not isinstance(exc.value, DomainTooLarge)
        with pytest.raises(DomainTooLarge):
            counter.solutions(trivial_bundle(G), 0)
        assert counter.solutions(line_bundle(G, [1], [0]), 0) == []


class TestDiscreteRoots:
    def test_pointed_loop_root_families(self):
        G = pointed_loop(2)
        roots = enumerate_discrete_roots(G, trivial_bundle(G), 2)
        assert {(R.int_part, R.mult) for R in roots} == {((0,), (0,)), ((-1,), (1,))}

    def test_powers_recover_the_bundle(self):
        rng = random.Random(21)
        for G in enumerate_stable_graphs(2, 0, [2, 4])[:20]:
            for r in (2, 4):
                L = random_bundle(G, rng)
                F = rth_power(L, r)
                roots = enumerate_discrete_roots(G, F, r)
                assert L in roots
                assert all(rth_power(R, r) == F for R in roots)

    def test_construct_root_round_trip(self):
        rng = random.Random(31)
        for G in enumerate_stable_graphs(2, 0, [1, 3])[:25]:
            for r in (2, 3):
                L = random_bundle(G, rng)
                F = rth_power(L, r)
                R = construct_root(G, F, r)
                assert R is not None
                assert rth_power(R, r) == F

    def test_construct_root_none_when_empty(self):
        G = two_bridge(2)
        assert construct_root(G, omega_bundle(G, 1), 2) is None


class TestCriterion:
    def test_hypothesis_checked(self):
        G = pointed_loop(3)
        L = line_bundle(G, [1], [0])
        with pytest.raises(HypothesisViolated):
            root_count_criterion(G, L, 3)

    def test_loop_passes_with_full_stabilizer(self):
        G = pointed_loop(2)
        passed, witnesses = root_count_criterion(G, omega_bundle(G, 1), 2)
        assert passed and not witnesses

    def test_stable_bridge_fails_on_side_degree(self):
        G = two_bridge(2)
        passed, witnesses = root_count_criterion(G, omega_bundle(G, 1), 2)
        assert not passed
        assert any("degree" in what for _, what, _ in witnesses)

    def test_bridge_with_full_stabilizer_passes(self):
        for g, r in ((2, 2), (3, 4)):
            G = two_bridge(g, r)
            passed, _ = root_count_criterion(G, omega_bundle(G, 1), r)
            assert passed

    def test_matches_counted_roots(self):
        rng = random.Random(17)
        for G in enumerate_stable_graphs(2, 0, [1, 2, 3, 4, 6])[:80]:
            g = genus(G)
            for r in (2, 3):
                F = random_bundle(G, rng, r)
                passed, _ = root_count_criterion(G, F, r)
                assert passed == (count_roots(G, F, r) == r ** (2 * g))


class TestKernelLaws:
    def test_kernel_size_iff_divisible(self):
        for G in enumerate_stable_graphs(2, 0, [1, 2, 4]):
            for r in (2, 4):
                nonsep = [
                    k for k in range(G.n_edges) if not classify_node(G, k).separating
                ]
                divisible = all(G.edges[k].stabilizer % r == 0 for k in nonsep)
                size = kernel_size_by_enumeration(delta_embed(G, r))
                assert (size == r ** (1 - G.n_vertices + G.n_edges)) == divisible

    def test_deletion_recursion_in_divisible_regime(self):
        for G in enumerate_stable_graphs(2, 0, [2, 4]):
            for r in (2,):
                nonsep = [
                    k for k in range(G.n_edges) if not classify_node(G, k).separating
                ]
                if not all(G.edges[k].stabilizer % r == 0 for k in nonsep):
                    continue
                full = kernel_size_by_enumeration(delta_embed(G, r))
                for k in nonsep:
                    sub = _delete_edge_kernel(G, k, r)
                    assert full == sub * gcd(r, G.edges[k].stabilizer)

    def test_deletion_bound_always(self):
        for G in enumerate_stable_graphs(2, 0, [1, 2, 3, 6]):
            for r in (2, 6):
                full = kernel_size_by_enumeration(delta_embed(G, r))
                for k in range(G.n_edges):
                    if classify_node(G, k).separating:
                        continue
                    sub = _delete_edge_kernel(G, k, r)
                    assert full <= sub * gcd(r, G.edges[k].stabilizer)

    def test_deletion_equality_fails_with_mixed_stabilizers(self):
        # Two parallel edges with stabilizers 2 and 3 at r = 6: deleting the
        # first leaves kernel 1, but the full kernel is 1, not 2.  The
        # deletion factor gcd(r, l) is only an upper bound here.
        G = dual_graph([1, 1], [(0, 1, 2), (0, 1, 3)])
        r = 6
        full = kernel_size_by_enumeration(delta_embed(G, r))
        sub = _delete_edge_kernel(G, 0, r)
        assert not classify_node(G, 0).separating
        assert full == 1 and sub == 1
        assert full != sub * gcd(r, 2)

    def test_image_order_with_divisible_stabilizers(self):
        # With every stabilizer divisible by r the image of the boundary
        # map is the full augmentation kernel, of order r^(|V|-1).
        for G in enumerate_stable_graphs(2, 0, [2]):
            r = 2
            h = delta_embed(G, r)
            image = kernel_size_by_enumeration(h)
            assert h.domain_size // image == r ** (G.n_vertices - 1)
            assert torsion_count(G, r) == r ** (
                2 * sum(v.genus for v in G.vertices) + 2 * (1 - G.n_vertices + G.n_edges)
            )


def _delete_edge_kernel(G, k, r):
    edges = [e for i, e in enumerate(G.edges) if i != k]
    sub = DeletedGraph(G.n_vertices, edges)
    return kernel_size_by_enumeration(_delta_embed_raw(sub, r))


class DeletedGraph:
    """Minimal stand-in: removing an edge may disconnect the graph, which
    DualGraph construction rejects, so the boundary map is built directly."""

    def __init__(self, n_vertices, edges):
        self.n_vertices = n_vertices
        self.edges = edges


def _delta_embed_raw(G, r):
    from twistcount.exactalg import CyclicHom

    matrix = [[0] * len(G.edges) for _ in range(G.n_vertices)]
    moduli = []
    for k, e in enumerate(G.edges):
        h = gcd(e.stabilizer, r)
        moduli.append(h)
        w = r // h
        matrix[e.head][k] += w
        matrix[e.tail][k] -= w
    return CyclicHom.of(matrix, moduli, [r] * G.n_vertices)


class TestDeltaImage:
    def test_zero_target(self):
        G = dual_graph([1, 1], [(0, 1, 2)])
        assert delta_image_member(G, 2, (0, 0))
        assert delta_image_lift(G, 2, (0, 0)) == (0,)

    def test_bridge_member_and_lift(self):
        G = dual_graph([1, 1], [(0, 1, 2)])
        assert delta_image_member(G, 2, (1, 1))
        x = delta_image_lift(G, 2, (1, 1))
        assert delta_embed(G, 2).apply(x) == (1, 1)

    def test_bridge_without_stabilizer_not_member(self):
        G = dual_graph([1, 1], [(0, 1, 1)])
        assert not delta_image_member(G, 2, (1, 1))
        assert delta_image_lift(G, 2, (1, 1)) is None

    @pytest.mark.parametrize("r", [0, -2])
    def test_order_below_one_rejected(self, r):
        G = pointed_loop(2)
        for call in (delta_image_member, delta_image_lift):
            with pytest.raises(picard.PicardError, match="order"):
                call(G, r, (0,))

    def test_hypothesis_and_augmentation_errors(self):
        G = pointed_loop(3)
        with pytest.raises(HypothesisViolated):
            delta_image_member(G, 2, (0,))
        with pytest.raises(AugmentationNonzero):
            delta_image_member(pointed_loop(2), 2, (1,))

    @pytest.mark.parametrize("r", [2, 3, 4, 6])
    def test_matches_lattice_membership(self, r):
        # Nonseparating stabilizers r or 2r, separating ones free, so both
        # members and non-members occur.
        rng = random.Random(f"lift:{r}")
        seen = set()
        for _ in range(200):
            shape = rng.choice(_SHAPES)
            stabs = [
                r * rng.choice((1, 2))
                if not classify_node(shape, k).separating
                else rng.choice((1, 2, 3, 4, 6, 12))
                for k in range(shape.n_edges)
            ]
            G = _decorate(shape, stabs)
            t = [rng.randrange(r) for _ in range(G.n_vertices)]
            t[-1] = (t[-1] - sum(t)) % r
            expected, _ = hom_image_contains(delta_embed(G, r), tuple(t))
            assert delta_image_member(G, r, t) == expected
            seen.add(expected)
            lift = delta_image_lift(G, r, t)
            if expected:
                assert delta_embed(G, r).apply(lift) == tuple(t)
            else:
                assert lift is None
        assert seen == {True, False}

    def test_forced_disagreement_raises(self, monkeypatch):
        G = dual_graph([1, 1], [(0, 1, 2)])
        member = picard.delta_image_member
        monkeypatch.setattr(
            picard, "delta_image_member", lambda G, r, t: not member(G, r, t)
        )
        for t in ((1, 1), (0, 0)):
            with pytest.raises(picard.PicardError):
                delta_image_lift(G, 2, t)
        with pytest.raises(picard.PicardError):
            delta_image_lift(dual_graph([1, 1], [(0, 1, 1)]), 2, (1, 1))


class TestCoprimeSplit:
    def test_not_coprime_rejected(self):
        G = pointed_loop(4)
        L = trivial_bundle(G)
        with pytest.raises(NotCoprime):
            split_coprime(L, 2, 4)

    def test_mismatched_roots_rejected(self):
        G = pointed_loop(6)
        a = line_bundle(G, [0], [3])  # squares to mult 0
        b = line_bundle(G, [0], [1])  # cubes to mult 3
        with pytest.raises(RootMismatch):
            combine_coprime(a, b, 2, 3)

    def test_round_trip_on_full_root_sets(self):
        for r1, r2 in ((2, 3), (3, 4), (2, 5)):
            r = r1 * r2
            G = pointed_loop(r)
            F = omega_bundle(G, 1)
            roots = enumerate_discrete_roots(G, F, r)
            roots1 = enumerate_discrete_roots(G, F, r1)
            roots2 = enumerate_discrete_roots(G, F, r2)
            seen = set()
            for L in roots:
                L1, L2 = split_coprime(L, r1, r2)
                assert L1 in roots1 and L2 in roots2
                assert combine_coprime(L1, L2, r1, r2) == L
                seen.add((L1, L2))
            assert len(seen) == len(roots)


class TestOrientationIndependence:
    def test_flip_preserves_counts(self):
        rng = random.Random(55)
        family = enumerate_stable_graphs(2, 0, [1, 2, 3, 4, 6])
        for _ in range(60):
            G = rng.choice(family)
            if not G.n_edges:
                continue
            e = rng.randrange(G.n_edges)
            F = random_bundle(G, rng, 2)
            flipped_F = flip_bundle_edge(F, e)
            H = flipped_F.graph
            for r in (2, 3):
                assert torsion_count(G, r) == torsion_count(H, r)
                assert count_roots(G, F, r) == count_roots(H, flipped_F, r)
            assert total_degree(F) == total_degree(flipped_F)
            for v in range(G.n_vertices):
                assert vertex_degree(F, v) == vertex_degree(flipped_F, v)
            passed, _ = root_count_criterion(G, F, 2)
            passed_f, _ = root_count_criterion(H, flipped_F, 2)
            assert passed == passed_f


# ---------------------------------------------------------------------------
# The rootsnum plan against per-bundle oracles


def _criterion_by_witnesses(G, F, r):
    """The edge criterion as a witness loop over every edge, with side
    degrees as exact rationals: independent of the integer plan."""
    witnesses = []
    for k, e in enumerate(G.edges):
        node = classify_node(G, k)
        l = e.stabilizer
        if not node.separating:
            if l % r:
                witnesses.append((k, "stabilizer", l))
            if F.mult[k] % r:
                witnesses.append((k, "head multiplicity", F.mult[k]))
            if F.tail_mult(k) % r:
                witnesses.append((k, "tail multiplicity", F.tail_mult(k)))
        else:
            for side, vs in (("+", node.plus_vertices), ("-", node.minus_vertices)):
                d = sum(vertex_degree(F, v) for v in vs)
                assert (l * d).denominator == 1
                if (l * d) % r:
                    witnesses.append((k, f"side {side} degree", d))
    return not witnesses, witnesses


def _base_solution(G, F, r):
    """Per-edge base multiplicities mu0 of r*mu = mult_F (mod l), or None."""
    mu0 = []
    for m, e in zip(F.mult, G.edges):
        sol = solve_congruence(r, m, e.stabilizer)
        if sol is None:
            return None
        mu0.append(sol[0])
    return mu0


def _vertex_defects(G, F, r, mu0):
    """The defects r*(deg_v(F)/r - frac_v(mu0)) with the base multiplicities
    mu0 in place, as exact rationals."""
    defects = []
    for v in range(G.n_vertices):
        defect = vertex_degree(F, v)
        for k, is_head in G.incidences(v):
            l = G.edges[k].stabilizer
            defect -= r * Fraction(mu0[k] if is_head else (l - mu0[k]) % l, l)
        defects.append(defect)
    return defects


def _vertex_targets(G, F, r, mu0):
    """Defect vector t with acceptance condition M x = t (mod r), or None.

    At vertex v the root must have degree deg_v(F)/r; with the base
    multiplicities in place the remaining defect r*(deg_v(F)/r -
    frac_v(mu0)) has to be an integer, taken with exact rationals.
    """
    defects = _vertex_defects(G, F, r, mu0)
    if any(d.denominator != 1 for d in defects):
        return None
    return tuple(d.numerator % r for d in defects)


def _base_target(G, F, r):
    """(counter, mu0, t) through the general mu0 path, not the memoized
    shifts behind RootCounter.count and its lifts; t is None when F has no
    root."""
    counter = RootCounter(G, r)
    mu0 = _base_solution(G, F, r)
    t = None if mu0 is None else _vertex_targets(G, F, r, mu0)
    return counter, mu0, t


def _count_by_base_solution(G, F, r):
    counter, _, t = _base_target(G, F, r)
    return 0 if t is None else counter.free_factor * counter.solution_count(t)


def _solution_count_by_tables(G, r, t):
    """Number of x in prod Z/h_e with M x = t (mod r), by the library's
    meet-in-the-middle sweep of the boundary map, not its Smith path."""
    return _match_count(delta_embed(G, r), t)


def _count_by_tables(G, F, r):
    """Root count with the table sweep in place of the Smith reduction."""
    counter, _, t = _base_target(G, F, r)
    return 0 if t is None else counter.free_factor * _solution_count_by_tables(G, r, t)


def _lift_by_base_solution(G, F, r):
    """(counter, mu0, x0) with x0 the Smith witness of the mu0-path
    target, or None when F has no root."""
    counter, mu0, t = _base_target(G, F, r)
    if t is None or not counter.solution_count(t):
        return None
    return counter, mu0, counter.smith.witness(t)


def _check_roots_against_base_solution(G, F, r):
    """construct_root and RootCounter.solutions against the mu0 path: the
    root from the witness, and the witness translated by ker M."""
    R = construct_root(G, F, r)
    lift = _lift_by_base_solution(G, F, r)
    assert (R is None) == (lift is None)
    if R is None:
        return
    counter, mu0, x0 = lift
    assert R.mult == counter._mult(mu0, x0)
    assert rth_power(R, r) == F
    if counter.smith.kernel_size <= 10**3:
        assert counter.solutions(F) == _solutions_by_closure(counter, mu0, x0)


def _solutions_by_product(G, F, r):
    """Accepted multiplicity vectors by sweeping all of prod Z/h_e in
    lexicographic order."""
    counter, mu0, t = _base_target(G, F, r)
    if t is None:
        return []
    hom = delta_embed(G, r)
    out = []
    for x in itertools.product(*(range(h) for h in counter.hs)):
        if hom.apply(x) == t:
            out.append(
                tuple(
                    (mu0[k] + (e.stabilizer // counter.hs[k]) * x[k]) % e.stabilizer
                    for k, e in enumerate(G.edges)
                )
            )
    return out


def _randrange_bundle(G, rng):
    """The random class of random_bundle, drawn with rng.randrange."""
    mult = [rng.randrange(e.stabilizer) for e in G.edges]
    return line_bundle(G, [rng.randrange(-3, 4) for _ in G.vertices], mult)


def _rootsnum_oracle(G, r_values, n_random, seed, criterion=None):
    """The per-bundle sweep: a LineBundleData per padded bundle, degrees
    recomputed per r, the criterion with witnesses on every check."""
    rng = random.Random(f"{seed}:{G!r}")
    g = genus(G)
    bundles = [omega_bundle(G, 1), omega_bundle(G, 2), trivial_bundle(G)]
    bundles += [_randrange_bundle(G, rng) for _ in range(n_random)]
    discrepancies = []
    checked = 0
    for r in r_values:
        expected = r ** (2 * g)
        for F in bundles:
            excess = total_degree(F) % r
            if excess:
                count = _count_by_base_solution(G, F, r)
                if count != 0:
                    discrepancies.append(RootsnumRecord(G, r, F, False, count, 0))
                int_part = list(F.int_part)
                int_part[0] -= excess
                F = LineBundleData(G, tuple(int_part), F.mult)
            count = _count_by_base_solution(G, F, r)
            if criterion is None:
                passed, witnesses = _criterion_by_witnesses(G, F, r)
                assert root_count_criterion(G, F, r) == (passed, witnesses)
            else:
                passed = criterion(G, F, r)
            checked += 1
            if passed != (count == expected):
                discrepancies.append(RootsnumRecord(G, r, F, passed, count, expected))
    return discrepancies, checked


def _screened(G, r):
    """Whether r divides every nonseparating stabilizer, from classify_node
    rather than the library's screen."""
    return all(
        e.stabilizer % r == 0
        for k, e in enumerate(G.edges)
        if not classify_node(G, k).separating
    )


def _negate_criterion(monkeypatch):
    """Make _Criterion.holds return the negation of its true answer, and
    return the oracle criterion that does the same on screened orders,
    the only ones on which the sweep calls holds.  Each check of such an
    order is then a discrepancy: count 0 where the criterion fails, the
    maximal count where it passes."""
    holds = picard._Criterion.holds
    monkeypatch.setattr(
        picard._Criterion, "holds", lambda self, d, mult: not holds(self, d, mult)
    )

    def negated(G, F, r):
        passed = root_count_criterion(G, F, r)[0]
        return not passed if _screened(G, r) else passed

    return negated


def _count_builds(monkeypatch):
    """Count the RootCounter and the Smith reductions that picard builds, in
    the returned dict under "counters" and "reductions"."""
    calls = {"counters": 0, "reductions": 0}
    init, reduce = RootCounter.__init__, picard.smith_normal_form

    def counter(self, G, r):
        calls["counters"] += 1
        init(self, G, r)

    def reduction(A):
        calls["reductions"] += 1
        return reduce(A)

    monkeypatch.setattr(RootCounter, "__init__", counter)
    monkeypatch.setattr(picard, "smith_normal_form", reduction)
    return calls


def _decorate(shape, stabs):
    return DualGraph(
        shape.vertices,
        tuple(Edge(e.tail, e.head, l) for e, l in zip(shape.edges, stabs)),
    )


class TestEdgeMemo:
    def test_entries_match_exact_defects(self):
        # On a bridge and on a loop carrying multiplicity m and no integer
        # part, the target of the counter is the memo's head and tail
        # deltas, which must be the oracle's exact defects with the same
        # base solution; an entry is empty exactly when gcd(r, l) does not
        # divide m.
        for l in range(1, 25):
            bridge = dual_graph([1, 1], [(1, 0, l)])  # head 0, tail 1
            loop = dual_graph([1], [(0, 0, l)])
            for r in range(1, 13):
                memo = picard._edge_memo(l, r)
                for m in range(l):
                    t = RootCounter(bridge, r)._targets((0, 0), (m,))
                    entry = memo[m]
                    assert (entry == ()) == (m % gcd(r, l) != 0)
                    assert (t is None) == (entry == ())
                    assert picard._edge_entry(l, r, m) == entry
                    if not entry:
                        continue
                    mu0, head, tail = entry
                    F = line_bundle(bridge, (0, 0), (m,))
                    assert [mu0] == _base_solution(bridge, F, r)
                    exact = _vertex_defects(bridge, F, r, [mu0])
                    assert t == [head, tail] == exact
                    F = line_bundle(loop, (0,), (m,))
                    assert RootCounter(loop, r)._targets((0,), (m,)) == [head + tail]
                    assert [head + tail] == _vertex_defects(loop, F, r, [mu0])

    def test_memo_shared_per_stabilizer_and_order(self):
        G = dual_graph([0, 0], [(0, 1, 6), (0, 1, 6), (0, 1, 4)])
        memos = [memo for _, _, _, memo in RootCounter(G, 4)._edges]
        assert memos[0] is memos[1] is picard._edge_memo(6, 4)
        assert memos[2] is picard._edge_memo(4, 4) is not memos[0]


class TestRootsnumPlan:
    ORDERS = (2, 3, 4, 6)

    def test_genus_two_family_matches_oracle(self):
        family = enumerate_stable_graphs(2, 0, [1, 2, 3, 4, 6])
        assert len(family) == 161
        for G in family:
            got = check_rootsnum_graph(G, self.ORDERS, n_random=50, seed=1729)
            assert got == _rootsnum_oracle(G, self.ORDERS, 50, 1729)

    def test_genus_three_sample_matches_oracle(self):
        rng = random.Random(3)
        shapes = enumerate_stable_graphs(3, 0, [1])
        for _ in range(60):
            shape = rng.choice(shapes)
            G = _decorate(shape, [rng.choice((1, 2, 3, 4, 6)) for _ in shape.edges])
            got = check_rootsnum_graph(G, self.ORDERS, n_random=20, seed=5)
            assert got == _rootsnum_oracle(G, self.ORDERS, 20, 5)

    def test_maximal_kernels_match_oracle(self):
        # Every stabilizer 12 makes every kernel maximal and every
        # nonseparating stabilizer pass for these orders, so every row runs
        # the criterion and the image test of its target.
        family = enumerate_stable_graphs(2, 0, [12])
        orders = (2, 3, 4, 6, 12)
        reached = checked = 0
        for G in family:
            for r in orders:
                assert torsion_count(G, r) == r ** (2 * genus(G))
                assert picard._Criterion(G, r).stabilizers_ok
            got = check_rootsnum_graph(G, orders, n_random=20, seed=12)
            assert got == _rootsnum_oracle(G, orders, 20, 12)
            # With a criterion that never passes, the oracle reports exactly
            # the checks that reach the maximal count.
            records, n = _rootsnum_oracle(G, orders, 20, 12, lambda G, F, r: False)
            reached += len(records)
            checked += n
        assert len(family) == 7 and 0 < reached < checked

    @pytest.mark.parametrize(
        "stabs, orders, targets, image_tests, criteria, draws, counters, reductions",
        [
            # Kernel not maximal, a nonseparating stabilizer 3: the order
            # fails the screen before the rows, so it builds no counter and
            # no reduction, no bundle is drawn, no row builds a target and
            # none tests the criterion.
            pytest.param((2, 3, 6), (2,), 0, 0, 0, 0, 0, 0, id="kernel-not-maximal"),
            # Kernel maximal and stabilizers passing: one counter and its
            # full reduction check the lemma and serve the rows' image
            # tests.  The 10 random rows are drawn, all 13 rows build a
            # target and the 5 with a base solution take the image test
            # once, after any padding.
            pytest.param((2, 3, 6), (3,), 13, 5, 13, 10, 1, 1, id="kernel-maximal"),
            # Every domain is trivial at r = 2, so free_factor * 1 < 2^6
            # bounds the kernel below maximal; the loop of stabilizer 3
            # fails the screen, which settles the order with nothing built.
            pytest.param((1, 3, 1), (2,), 0, 0, 0, 0, 0, 0, id="bound-settles"),
            # The screen settles r = 2 and the maximal r = 3 draws the rows:
            # only r = 3 builds a counter and reduces, and 7 of its rows
            # have a base solution.
            pytest.param(
                (1, 3, 1), (2, 3), 13, 7, 13, 10, 1, 1, id="bound-settles-one-order"
            ),
        ],
    )
    def test_per_order_facts_settle_the_rows(
        self,
        monkeypatch,
        stabs,
        orders,
        targets,
        image_tests,
        criteria,
        draws,
        counters,
        reductions,
    ):
        calls = {"targets": 0, "image": 0, "criterion": 0, "draws": 0}

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)

            return wrapper

        monkeypatch.setattr(RootCounter, "_targets", counted("targets", RootCounter._targets))
        smith = picard._SmithData
        monkeypatch.setattr(smith, "contains", counted("image", smith.contains))
        holds = picard._Criterion.holds
        monkeypatch.setattr(picard._Criterion, "holds", counted("criterion", holds))
        monkeypatch.setattr(picard, "_draw", counted("draws", picard._draw))
        builds = _count_builds(monkeypatch)
        G = dual_graph([1, 0, 1], [(0, 1, stabs[0]), (1, 1, stabs[1]), (1, 2, stabs[2])])
        assert check_rootsnum_graph(G, orders, n_random=10, seed=3) == ([], 13 * len(orders))
        assert {**calls, **builds} == {
            "targets": targets,
            "image": image_tests,
            "criterion": criteria,
            "draws": draws,
            "counters": counters,
            "reductions": reductions,
        }

    def test_negated_criterion_reports_every_row(self, monkeypatch):
        # With holds negated, each of the 13 rows of the screened r = 3 is
        # a discrepancy, while the unscreened r = 2 builds no counter and
        # no reduction.  The records reuse the one reduction of r = 3.
        negated = _negate_criterion(monkeypatch)
        builds = _count_builds(monkeypatch)
        G = dual_graph([1, 0, 1], [(0, 1, 2), (1, 1, 3), (1, 2, 6)])
        records, checked = check_rootsnum_graph(G, (2, 3), n_random=10, seed=3)
        assert builds == {"counters": 1, "reductions": 1}
        assert (len(records), checked) == (13, 26)
        assert {rec.r for rec in records} == {3}
        assert {rec.count for rec in records} == {0, 3**6}
        assert (records, checked) == _rootsnum_oracle(G, (2, 3), 10, 3, negated)

    def test_screened_order_off_the_lemma_raises(self, monkeypatch):
        # A screened order whose kernel is not maximal would contradict the
        # flow lemma; the sweep refuses it rather than report its rows.
        G = dual_graph([1, 0, 1], [(0, 1, 2), (1, 1, 3), (1, 2, 6)])
        assert check_rootsnum_graph(G, (2, 3), n_random=2) == ([], 10)
        monkeypatch.setattr(picard, "_kernel_size", lambda hs, mods, r: 1)
        # r = 2 fails the screen and builds nothing, so only r = 3 reaches
        # the guard.
        assert check_rootsnum_graph(G, (2,), n_random=2) == ([], 5)
        with pytest.raises(picard.PicardError, match="order 3 passes the stabilizer test"):
            check_rootsnum_graph(G, (2, 3), n_random=2)

    def test_targets_sum_to_the_total_degree(self):
        # The sweep counts no roots for a row whose total degree is not a
        # multiple of r.  That rests on two facts, checked here on every row
        # of the genus-2 sweep before padding: each column of the boundary
        # map sums to 0, and each target sums to the total degree mod r.
        family = enumerate_stable_graphs(2, 0, [1, 2, 3, 4, 6])
        assert len(family) == 161
        off_hypothesis = 0
        for G in family:
            rng = random.Random(f"1729:{G!r}")
            bundles = [omega_bundle(G, 1), omega_bundle(G, 2), trivial_bundle(G)]
            bundles += [random_bundle(G, rng) for _ in range(50)]
            for r in self.ORDERS:
                for column in zip(*delta_embed(G, r).matrix):
                    assert sum(column) == 0
                counter = RootCounter(G, r)
                for F in bundles:
                    t = counter._targets(F.int_part, F.mult)
                    if t is not None:
                        total = total_degree(F)
                        assert (sum(t) - total) % r == 0
                        off_hypothesis += total % r != 0
        assert off_hypothesis

    def test_no_roots_off_the_hypothesis(self):
        # The fraction sweep, which shares no code with the boundary map,
        # finds no root of a class whose total degree is not a multiple of r.
        swept = 0
        for G in enumerate_stable_graphs(2, 0, [1, 2, 3, 4, 6]):
            rng = random.Random(f"7:{G!r}")
            bundles = [omega_bundle(G, 1), trivial_bundle(G)]
            bundles += [random_bundle(G, rng) for _ in range(20)]
            for r in self.ORDERS:
                counter = RootCounter(G, r)
                if counter.domain_size > 10**3:
                    continue
                for F in bundles:
                    if total_degree(F) % r:
                        assert count_roots_by_fractions(G, F, r, max_domain=10**3) == 0
                        swept += counter._targets(F.int_part, F.mult) is not None
        assert swept

    def test_forced_disagreement_records_padded_bundles(self, monkeypatch):
        # With the criterion negated on screened orders, every check of such
        # an order is a discrepancy; the records must carry the padded
        # bundle and come in sweep order (r, then bundle).
        negated = _negate_criterion(monkeypatch)
        family = enumerate_stable_graphs(2, 0, [1, 2, 4])
        padded = 0
        counts = set()
        for G in family[::5]:
            got, checked = check_rootsnum_graph(G, self.ORDERS, n_random=8, seed=2)
            assert (got, checked) == _rootsnum_oracle(G, self.ORDERS, 8, 2, negated)
            screened = [r for r in self.ORDERS if _screened(G, r)]
            assert len(got) == 11 * len(screened)
            rng = random.Random(f"2:{G!r}")
            raw = {random_bundle(G, rng) for _ in range(8)}
            for rec in got:
                assert rec.criterion != (rec.count == rec.expected)
                assert total_degree(rec.bundle) % rec.r == 0
                assert count_roots(G, rec.bundle, rec.r) == rec.count
                counts.add(rec.count == rec.expected)
                padded += rec.bundle not in raw and rec.bundle.mult in {
                    F.mult for F in raw
                }
        assert padded and counts == {False, True}

    def test_forced_failure_keeps_the_maximal_orders(self, monkeypatch):
        # The negated criterion fails every check that reaches the maximal
        # count, and only the screened orders have such checks: the records
        # with the maximal count are the checks of screened orders whose
        # true criterion passes.
        negated = _negate_criterion(monkeypatch)
        reached = 0
        orders = (2, 3, 4, 6, 12)
        for G in enumerate_stable_graphs(2, 0, [12]):
            got = check_rootsnum_graph(G, orders, n_random=20, seed=12)
            assert got == _rootsnum_oracle(G, orders, 20, 12, negated)
            reached += sum(rec.count == rec.expected for rec in got[0])
        rng = random.Random(4)
        shapes = enumerate_stable_graphs(3, 0, [1])
        for _ in range(40):
            shape = rng.choice(shapes)
            G = _decorate(shape, [rng.choice((1, 2, 3, 4, 6)) for _ in shape.edges])
            got = check_rootsnum_graph(G, self.ORDERS, n_random=10, seed=6)
            assert got == _rootsnum_oracle(G, self.ORDERS, 10, 6, negated)
            for rec in got[0]:
                assert _screened(G, rec.r)
                assert (rec.count == rec.expected) == (not rec.criterion)
                reached += rec.count == rec.expected
        assert reached

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_negative_random_count_refused(self, monkeypatch, jobs):
        # range(-1) is empty, so a negative count would draw no bundle and
        # still count 3 checks per order; it is refused before any work.
        def refuse(*args):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(picard, "RootCounter", refuse)
        family = enumerate_stable_graphs(2, 0, (1, 2))
        with pytest.raises(picard.PicardError, match="-1 random bundles"):
            check_rootsnum_graph(family[0], (2,), n_random=-1)
        with pytest.raises(picard.PicardError, match="-1 random bundles"):
            verify_rootsnum(family, (2,), n_random=-1, jobs=jobs)

    def test_worker_pool_matches_serial_sweep(self):
        family = enumerate_stable_graphs(2, 0, (1, 2))
        serial = verify_rootsnum(family, (2, 4), n_random=5, seed=3, jobs=1)
        assert serial[1] == len(family) * 2 * 8
        assert verify_rootsnum(family, (2, 4), n_random=5, seed=3, jobs=2) == serial

    @pytest.mark.parametrize("orders", [(2, 2), (3, 2, 3)])
    def test_repeated_orders_refused(self, orders):
        family = enumerate_stable_graphs(2, 0, (1,))
        with pytest.raises(picard.PicardError, match="repeated orders"):
            verify_rootsnum(family, orders, n_random=1)

    @pytest.mark.parametrize(
        "jobs, n_graphs, cpus, workers",
        [(8, 3, 4, 3), (8, 10, 4, 4), (2, 10, 4, 2), (8, 10, 1, None), (8, 10, None, None),
         (4, 1, 4, None), (1, 10, 4, None)],
    )
    def test_worker_pool_is_capped(self, monkeypatch, jobs, n_graphs, cpus, workers):
        # No process starts: the fake pool records its size and whether
        # SIGINT is ignored while it starts, and maps here.
        import multiprocessing
        import signal

        sizes = []

        class Pool:
            def __init__(self, processes):
                assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, iterable, chunksize=1):
                return list(map(func, iterable))

        monkeypatch.setattr(multiprocessing, "Pool", Pool)
        monkeypatch.setattr(picard.os, "cpu_count", lambda: cpus)
        family = enumerate_stable_graphs(2, 0, (1, 2))[:n_graphs]
        handler = signal.getsignal(signal.SIGINT)
        got = verify_rootsnum(family, (2, 3), n_random=2, seed=4, jobs=jobs)
        assert signal.getsignal(signal.SIGINT) is handler
        assert got == verify_rootsnum(family, (2, 3), n_random=2, seed=4, jobs=1)
        assert sizes == ([] if workers is None else [workers])

    def test_sweep_builds_only_the_fixed_bundles(self, monkeypatch):
        # Random classes stay integer rows; a LineBundleData is built for the
        # dualizing class, its square and the trivial class, and otherwise
        # only for a discrepancy's record.
        built = []
        post_init = LineBundleData.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        G = dual_graph([1, 0, 1], [(0, 1, 2), (1, 1, 3), (1, 2, 6)])
        fixed = [omega_bundle(G, 1), omega_bundle(G, 2), trivial_bundle(G)]
        monkeypatch.setattr(LineBundleData, "__post_init__", counted)
        discrepancies, checked = check_rootsnum_graph(G, self.ORDERS, n_random=50, seed=9)
        assert discrepancies == [] and checked == 4 * 53
        assert built == fixed
        # A loop of stabilizer 5 fails the screen at every order, so every
        # order is settled before the rows and not even the fixed bundles
        # are built, while every check still counts.
        built.clear()
        G = dual_graph([1, 0, 1], [(0, 1, 1), (1, 1, 5), (1, 2, 1)])
        assert check_rootsnum_graph(G, self.ORDERS, n_random=50, seed=9) == ([], 4 * 53)
        assert built == []

    def test_cache_sizes_stay_bounded(self):
        shape = dual_graph([0, 0, 0, 0], [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        sweep = itertools.islice(
            itertools.product((1, 2, 3, 4, 6), repeat=shape.n_edges),
            GRAPH_CACHE_SIZE + 64,
        )
        for stabs in sweep:
            G = _decorate(shape, stabs)
            check_rootsnum_graph(G, (2,), n_random=0)
            torsion_count(G, 2)
        for cache in (picard._node_types, picard._edge_sides, picard._counter):
            info = cache.cache_info()
            assert info.maxsize == GRAPH_CACHE_SIZE
            assert info.currsize == GRAPH_CACHE_SIZE
        # Node types are classified once per shape, so the decorations above
        # filled one entry of the per-shape cache; shapes with new vertex
        # genera fill it to its bound and no further.
        shapes = picard._shape_node_types
        assert shapes.cache_info().maxsize == GRAPH_CACHE_SIZE
        picard._node_types.cache_clear()
        shapes.cache_clear()
        for G in [_decorate(shape, (2,) * shape.n_edges), _decorate(shape, (3,) * shape.n_edges)]:
            check_rootsnum_graph(G, (2,), n_random=0)
        assert shapes.cache_info().currsize == 1
        for g in range(1, GRAPH_CACHE_SIZE + 65):
            check_rootsnum_graph(dual_graph([g, 1], [(0, 1, 2)]), (2,), n_random=0)
        assert shapes.cache_info().currsize == GRAPH_CACHE_SIZE

    def test_lifts_reuse_cached_node_types(self, monkeypatch):
        G = dual_graph([1, 0, 1], [(0, 1, 2), (1, 1, 2), (1, 2, 2)])
        t = (1, 0, 1)
        expected = delta_image_member(G, 2, t), delta_image_lift(G, 2, t)

        def refuse(*args):
            raise AssertionError("classify_node called on a cached graph")

        monkeypatch.setattr(picard, "classify_node", refuse)
        assert (delta_image_member(G, 2, t), delta_image_lift(G, 2, t)) == expected


_SHAPES = enumerate_stable_graphs(2, 0, [1]) + enumerate_stable_graphs(3, 0, [1])


@st.composite
def _graph_bundle_order(draw):
    shape = draw(st.sampled_from(_SHAPES))
    stabs = [draw(st.sampled_from((1, 2, 3, 4, 6, 12))) for _ in shape.edges]
    G = _decorate(shape, stabs)
    int_part = [draw(st.integers(-3, 3)) for _ in G.vertices]
    mult = [draw(st.integers(0, l - 1)) for l in stabs]
    r = draw(st.sampled_from((2, 3, 4, 6)))
    return G, line_bundle(G, int_part, mult), r


def _degrees(L):
    """Vertex degrees of L as exact rationals, checked against total_degree
    through their sum and against the criterion's integer degrees d, which
    leave mu/l at the head and -mu/l at the tail of every edge."""
    degrees = [vertex_degree(L, v) for v in range(L.graph.n_vertices)]
    assert total_degree(L) == sum(degrees)
    rest = picard._integer_degrees(L.graph, L.int_part, L.mult)
    for e, m in zip(L.graph.edges, L.mult):
        rest[e.head] += Fraction(m, e.stabilizer)
        rest[e.tail] -= Fraction(m, e.stabilizer)
    assert degrees == rest
    return degrees


class TestDegreeLaws:
    @settings(max_examples=200, deadline=None)
    @given(_graph_bundle_order(), st.data())
    def test_products_powers_and_roots(self, case, data):
        # The integer carries of tensor, power and the root constructors
        # against vertex_degree, which sums the branch fractions.
        G, L, r = case
        int_part = [data.draw(st.integers(-3, 3)) for _ in G.vertices]
        M = line_bundle(G, int_part, [data.draw(st.integers(0, e.stabilizer - 1)) for e in G.edges])
        degrees = _degrees(L)
        assert _degrees(tensor(L, M)) == [a + b for a, b in zip(degrees, _degrees(M))]
        for a in range(-3, 4):
            assert _degrees(power(L, a)) == [a * x for x in degrees]
        padded = line_bundle(
            G, (L.int_part[0] - total_degree(L) % r,) + L.int_part[1:], L.mult
        )
        for F in (padded, rth_power(L, r)):
            target = [x / r for x in _degrees(F)]
            R = construct_root(G, F, r)
            assert (R is None) == (count_roots(G, F, r) == 0)
            roots = [] if R is None else [R]
            if RootCounter(G, r).smith.kernel_size <= 10**3:
                roots += enumerate_discrete_roots(G, F, r)
            for R in roots:
                assert _degrees(R) == target


def _plan_answers(G, F, r):
    """The count of RootCounter.count, and the criterion of the per-(G, r)
    _Criterion on the integer degrees (None off the hypothesis)."""
    d = picard._integer_degrees(G, F.int_part, F.mult)
    count = RootCounter(G, r).count(F)
    if sum(d) % r:
        return count, None
    return count, picard._Criterion(G, r).holds(d, F.mult)


class TestPlanProperties:
    @settings(max_examples=300, deadline=None)
    @given(_graph_bundle_order(), st.data())
    def test_plan_against_oracles(self, case, data):
        G, L, r = case
        padded = line_bundle(
            G, (L.int_part[0] - total_degree(L) % r,) + L.int_part[1:], L.mult
        )
        e = data.draw(st.integers(0, G.n_edges - 1)) if G.n_edges else None
        small = RootCounter(G, r).domain_size <= 10**3
        for F in (L, padded):
            count, holds = _plan_answers(G, F, r)
            assert count == _count_by_base_solution(G, F, r)
            assert count == _count_by_tables(G, F, r)
            if small:
                assert count == count_roots_by_fractions(G, F, r, max_domain=10**3)
                assert RootCounter(G, r).solutions(F) == _solutions_by_product(G, F, r)
            _check_roots_against_base_solution(G, F, r)
            if e is not None:
                flipped = flip_bundle_edge(F, e)
                assert _plan_answers(flipped.graph, flipped, r) == (count, holds)
                assert _count_by_tables(flipped.graph, flipped, r) == count
                _check_roots_against_base_solution(flipped.graph, flipped, r)
            if total_degree(F) % r:
                assert count == 0 and holds is None
                continue
            assert holds == root_count_criterion(G, F, r)[0]
            assert holds == _criterion_by_witnesses(G, F, r)[0]
