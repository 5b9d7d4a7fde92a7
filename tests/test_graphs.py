import gc
import itertools
import random
import signal
import tracemalloc

import pytest

from twistcount import graphs
from twistcount.graphs import (
    BadIndex,
    DisconnectedGraph,
    DualGraph,
    Edge,
    GraphError,
    MultiIndex,
    MultiIndexLengthMismatch,
    SizeLimitExceeded,
    UnsupportedGenus,
    Vertex,
    betti,
    canonical_form,
    classify_node,
    dual_graph,
    enumerate_stable_graphs,
    flip_edge,
    genus,
    is_l_stable,
    is_stable,
    relabel,
)
from twistcount.graphs import (  # internals compared with their oracles
    MAX_ENUMERATION_VERTICES,
    _compositions,
    _degree_sequences,
    _edge_table,
    _enumerate_shapes,
    _has_smaller_relabelling,
    _LabelPlan,
    _LayoutTable,
    _sorted_within,
    _stabilizer_assignments,
)
from twistcount.oracles import bridges


def theta():
    return dual_graph([0, 0], [(0, 1), (0, 1), (0, 1)])


def dumbbell():
    return dual_graph([0, 0], [(0, 0), (0, 1), (1, 1)])


def one_pointed_loop(l=2):
    return dual_graph([(0, [1])], [(0, 0, l)])


class TestConstruction:
    def test_disconnected_rejected(self):
        # User input runs the connectivity search; only decorations of an
        # enumerated shape skip it.
        with pytest.raises(DisconnectedGraph):
            dual_graph([1, 1], [])
        with pytest.raises(DisconnectedGraph):
            dual_graph([0, 0, 1], [(0, 1), (0, 1), (0, 1), (2, 2)])

    def test_decorations_keep_field_checks(self):
        # Decorations are assembled from a shape's edge table, whose edges
        # pass the edge checks of the constructor.
        with pytest.raises(GraphError, match="edge 0: stabilizer 0 < 1"):
            _edge_table(2, theta().edges, (0, 2))
        with pytest.raises(BadIndex, match="edge 2: endpoint out of range"):
            _edge_table(2, (Edge(0, 1), Edge(0, 1), Edge(0, 2)), (1, 2))

    def test_bad_edge_index(self):
        with pytest.raises(BadIndex):
            dual_graph([0, 0], [(0, 5)])

    def test_duplicate_marking(self):
        with pytest.raises(GraphError):
            dual_graph([(0, [1]), (0, [1])], [(0, 1)])

    def test_nonpositive_stabilizer(self):
        with pytest.raises(GraphError):
            dual_graph([0], [(0, 0, 0)])

    def test_negative_genus(self):
        with pytest.raises(GraphError):
            dual_graph([-1], [])

    def test_hash_is_cached_without_an_instance_dict(self):
        # The cached hash is one int attribute per graph (about 35 bytes);
        # reading it through __dict__ would build a dict for every hashed
        # graph as well (about 100 bytes in all).
        family = enumerate_stable_graphs(3, 0, (1, 2, 3, 4, 6))
        assert len(family) == 31156
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for G in family:
                hash(G)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown / len(family) < 64
        G = family[-1]
        assert hash(G) == hash(DualGraph(G.vertices, G.edges)) == hash((G.vertices, G.edges))


class TestGenus:
    def test_smooth(self):
        assert genus(dual_graph([2])) == 2

    def test_irreducible_one_node(self):
        # one vertex of genus g0 with a loop has genus g0 + 1
        for g0 in range(4):
            assert genus(dual_graph([(g0, [1])], [(0, 0)])) == g0 + 1

    def test_theta(self):
        assert genus(theta()) == 2
        assert betti(theta()) == 2

    def test_formula(self):
        for G in enumerate_stable_graphs(3, 0, [1]):
            assert genus(G) == 1 - G.n_vertices + G.n_edges + sum(
                v.genus for v in G.vertices
            )


class TestClassifyNode:
    def test_loop_nonseparating(self):
        node = classify_node(one_pointed_loop(), 0)
        assert not node.separating and node.index == 0

    def test_two_component_bridge(self):
        for g in (2, 3, 5):
            G = dual_graph([g - 1, 1], [(0, 1)])
            node = classify_node(G, 0)
            assert node.separating and node.index == 1

    def test_dumbbell_middle_edge(self):
        node = classify_node(dumbbell(), 1)
        assert node.separating and node.index == 1
        assert node.plus_vertices == frozenset({1})
        assert node.plus_edges == frozenset({2})

    def test_orientation_flip_swaps_sides(self):
        G = dumbbell()
        before = classify_node(G, 1)
        after = classify_node(flip_edge(G, 1), 1)
        assert before.index == after.index
        assert before.plus_vertices == after.minus_vertices
        assert before.plus_edges == after.minus_edges

    def test_separating_edges_are_bridges(self):
        for G in enumerate_stable_graphs(3, 0, [1]):
            separating = {
                k for k in range(G.n_edges) if classify_node(G, k).separating
            }
            assert separating == set(bridges(G))


class TestStability:
    def test_loop_with_leg(self):
        assert is_stable(one_pointed_loop())

    def test_rational_bridge_unstable(self):
        assert not is_stable(dual_graph([0, 1], [(0, 1)]))

    def test_bare_elliptic_unstable(self):
        assert not is_stable(dual_graph([1]))

    def test_l_stable_trivial_profile(self):
        G = dual_graph([1, 1], [(0, 1)])
        assert is_l_stable(G, MultiIndex.of([1, 1]))

    def test_l_stable_pointed_loop(self):
        assert is_l_stable(one_pointed_loop(2), MultiIndex.of([2]))
        assert not is_l_stable(one_pointed_loop(2), MultiIndex.of([3]))

    def test_multiindex_length(self):
        with pytest.raises(MultiIndexLengthMismatch):
            is_l_stable(one_pointed_loop(), MultiIndex.of([2, 2]))


class TestCanonicalForm:
    def test_relabel_invariance(self):
        rng = random.Random(5)
        for G in enumerate_stable_graphs(3, 0, [1, 2])[:40]:
            base = canonical_form(G)
            for _ in range(100):
                perm = list(range(G.n_vertices))
                rng.shuffle(perm)
                assert canonical_form(relabel(G, perm)) == base

    def test_edge_order_invariance(self):
        # The label reads the edges as a multiset: listing parallel edges
        # with their stabilizers out of order changes nothing.
        rng = random.Random(17)
        for G in enumerate_stable_graphs(2, 1, [1, 2, 3])[::7]:
            base = canonical_form(G)
            for _ in range(10):
                edges = list(G.edges)
                rng.shuffle(edges)
                assert canonical_form(DualGraph(G.vertices, tuple(edges))) == base

    def test_flip_invariance(self):
        G = dumbbell()
        assert canonical_form(flip_edge(G, 1)) == canonical_form(G)

    def test_theta_vs_dumbbell(self):
        assert canonical_form(theta()) != canonical_form(dumbbell())

    def test_stabilizers_distinguish(self):
        assert canonical_form(one_pointed_loop(2)) != canonical_form(one_pointed_loop(3))

    def test_size_limit(self):
        G = dual_graph([0] * 11, [(i, i + 1) for i in range(10)] + [(0, 10), (0, 5)])
        with pytest.raises(SizeLimitExceeded):
            canonical_form(G)


class TestEnumeration:
    def test_genus_two_stable(self):
        found = enumerate_stable_graphs(2, 0, [1])
        assert len(found) == 7

    def test_genus_one_pointed(self):
        assert len(enumerate_stable_graphs(1, 1, [1])) == 2

    def test_bad_genus(self):
        for g, n in ((0, 0), (0, 2), (1, 0)):
            with pytest.raises(UnsupportedGenus, match="no stable graphs"):
                enumerate_stable_graphs(g, n, [1])
        for n in (3, 4):
            with pytest.raises(UnsupportedGenus, match="genus 0 is not supported"):
                enumerate_stable_graphs(0, n, [1])
        for g, n in ((-1, 5), (2, -1)):
            with pytest.raises(UnsupportedGenus, match="must be non-negative"):
                enumerate_stable_graphs(g, n, [1])
        # (6, 0) has graphs with 10 vertices, past the vertex cap.
        with pytest.raises(UnsupportedGenus, match="enumeration cap"):
            enumerate_stable_graphs(6, 0, [1])

    def test_all_outputs_stable_and_on_genus(self):
        for G in enumerate_stable_graphs(2, 0, [1, 2]):
            assert is_stable(G)
            assert genus(G) == 2
            assert all(e.stabilizer in (1, 2) for e in G.edges)

    def test_no_duplicate_classes(self):
        found = enumerate_stable_graphs(2, 0, [1, 2, 3])
        labels = [canonical_form(G) for G in found]
        assert len(labels) == len(set(labels))

    def test_deterministic_order(self):
        a = enumerate_stable_graphs(2, 0, [1, 2])
        b = enumerate_stable_graphs(2, 0, [2, 1])
        assert a == b

    def test_genus_two_with_two_stabilizers(self):
        # Independent oracle: regenerate every decorated graph by brute
        # force over all per-edge assignments on all shapes and count the
        # distinct brute-force labels.
        found = enumerate_stable_graphs(2, 0, [1, 2])
        assert len(found) == _oracle_count(2, (1, 2))

    def test_genus_two_three_stabilizers_oracle(self):
        found = enumerate_stable_graphs(2, 0, [1, 2, 3])
        assert len(found) == _oracle_count(2, (1, 2, 3))

    @pytest.mark.parametrize("g, count", [(2, 7), (3, 42), (4, 379)])
    def test_undecorated_counts(self, g, count):
        # Maggiolo-Pagani, "Generating stable modular graphs" (2011).
        shapes = enumerate_stable_graphs(g, 0, [1])
        assert len(shapes) == count
        labels = {_brute_canonical_form(G) for G in shapes}
        assert len(labels) == count

    @pytest.mark.parametrize(
        "g, n, count", [(1, 2, 5), (1, 3, 11), (2, 1, 16), (2, 2, 60), (3, 1, 181)]
    )
    def test_pointed_shape_counts(self, g, n, count):
        # Counts of the exhaustive search over every vertex labelling, before
        # labellings with unsorted vertex keys were skipped.
        assert len(enumerate_stable_graphs(g, n, [1])) == count

    def test_genus_three_decorated_count(self):
        assert len(enumerate_stable_graphs(3, 0, [1, 2, 3, 4, 6])) == 31156

    def test_genus_four_decorated_count(self):
        assert len(enumerate_stable_graphs(4, 0, (1, 2))) == 18505

    @pytest.mark.parametrize("g, n", [(4, 3), (2, 7), (1, 9)])
    def test_vertex_cap_raises_before_search(self, monkeypatch, g, n):
        # Stable graphs of (g, n) have up to 2g - 2 + n vertices; families
        # past the cap are refused without searching for a shape.
        assert 2 * g - 2 + n > MAX_ENUMERATION_VERTICES

        def no_search(*args):
            raise AssertionError("shape search started")

        monkeypatch.setattr(graphs, "_enumerate_shapes", no_search)
        with pytest.raises(UnsupportedGenus, match="enumeration cap"):
            enumerate_stable_graphs(g, n, [1])

    def test_decorations_equal_checked_graphs(self):
        # Decorations skip the constructor, whose checks ran once per edge
        # of the shape's table: each equals, and hashes like, the graph
        # built through every check, connectivity included, and the plan's
        # labels are canonical_form's.
        for g, n, choices in ((2, 0, (1, 2, 3)), (2, 2, (1, 2)), (3, 0, (1, 2, 3, 4, 6))):
            found = enumerate_stable_graphs(g, n, choices)
            for G in found:
                checked = DualGraph(G.vertices, G.edges)
                assert G == checked
                assert hash(G) == hash(checked)
            labels = [canonical_form(G) for G in found]
            assert labels == sorted(set(labels))

    def test_huge_stabilizer_keeps_tables_small(self):
        # The label texts are kept per choice: a table over every
        # stabilizer below the largest would hold 10**9 texts per edge.
        choices = (1, 2, 10**9)

        def too_slow(signum, frame):
            raise TimeoutError("enumeration ran for a second")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            found = enumerate_stable_graphs(2, 1, choices)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert len(found) == len(enumerate_stable_graphs(2, 1, (1, 2, 3)))
        labels = []
        for shape in _enumerate_shapes(2, 1):
            plan = _LabelPlan(shape)
            table = _LayoutTable(plan, choices)
            for assign in _stabilizer_assignments(plan, choices):
                labels.append(plan.label(assign))
                assert table.label(assign) == labels[-1]
        assert sorted(labels) == [canonical_form(G) for G in found]

    def test_no_cyclic_garbage(self):
        # Labelling and enumeration free everything by reference counting;
        # a reference cycle would wait for the cyclic collector.
        sample = enumerate_stable_graphs(2, 1, (1, 2))[:60]
        gc.collect()
        gc.disable()
        try:
            for G in sample:
                canonical_form(G)
            enumerate_stable_graphs(3, 0, (1, 2))
            _enumerate_shapes(3, 1)
            _enumerate_shapes(4, 0)
        finally:
            gc.enable()
        assert gc.collect() == 0

    @pytest.mark.parametrize(
        "g, n, count", [(4, 1, 2666), (3, 3, 4041), (2, 5, 2325), (5, 0, 4555)]
    )
    def test_larger_shape_counts(self, g, n, count):
        # 4,555 genus-5 shapes: Maggiolo and Pagani, "Generating stable
        # modular graphs", J. Symbolic Comput. 46 (2011).
        assert len(_enumerate_shapes(g, n)) == count

    def test_prefix_cut_leaves_few_full_tests(self, monkeypatch):
        # Without the cut at completed rows, all 8,503 realizations of the
        # genus-4 degree blocks reach the full relabelling test.
        test = graphs._has_smaller_relabelling
        full = []

        def counted(counts, slot_members, done):
            full.append(done == len(counts))
            return test(counts, slot_members, done)

        monkeypatch.setattr(graphs, "_has_smaller_relabelling", counted)
        assert len(_enumerate_shapes(4, 0)) == 379
        assert sum(full) == 706

    def test_decoration_cost_is_per_shape(self, monkeypatch):
        # The orbit filter tests 76,831 combinations of runs on the 42
        # genus-3 shapes and keeps 31,156; the edge checks run once per
        # (edge, choice) of a shape, 785 times, not once per decoration,
        # and the full field check never.
        shapes = _enumerate_shapes(3, 0)
        tested, kept, edge_checks, field_checks = [], [], [], []

        class CountedItertools:
            def __getattr__(self, name):
                return getattr(itertools, name)

            @staticmethod
            def product(*runs):
                for combo in itertools.product(*runs):
                    tested.append(1)
                    yield combo

        assign = graphs._stabilizer_assignments
        check_edge = graphs._check_edge
        check_fields = DualGraph._check_fields

        def counted_assign(plan, choices):
            out = assign(plan, choices)
            kept.append(len(out))
            return out

        def counted_edge(*args):
            edge_checks.append(1)
            return check_edge(*args)

        def counted_fields(G):
            field_checks.append(1)
            return check_fields(G)

        monkeypatch.setattr(graphs, "_enumerate_shapes", lambda g, n: shapes)
        monkeypatch.setattr(graphs, "itertools", CountedItertools())
        monkeypatch.setattr(graphs, "_stabilizer_assignments", counted_assign)
        monkeypatch.setattr(graphs, "_check_edge", counted_edge)
        monkeypatch.setattr(DualGraph, "_check_fields", counted_fields)
        choices = (1, 2, 3, 4, 6)
        assert len(enumerate_stable_graphs(3, 0, choices)) == 31156
        assert (len(tested), sum(kept)) == (76831, 31156)
        assert len(edge_checks) == len(choices) * sum(G.n_edges for G in shapes) == 785
        assert field_checks == []

    def test_one_label_per_shape(self, monkeypatch):
        # The shape search labels nothing; each of the 379 shapes gets one
        # plan and one search, for its only decoration.
        searches, plans = _count_searches_and_plans(monkeypatch)
        assert len(_enumerate_shapes(4, 0)) == 379
        assert (len(searches), len(plans)) == (0, 0)
        assert len(enumerate_stable_graphs(4, 0, (1,))) == 379
        assert (len(searches), len(plans)) == (379, 379)

    def test_shape_generated_twice_raises(self, monkeypatch):
        # Keeping every realization decorates some class twice.
        monkeypatch.setattr(graphs, "_has_smaller_relabelling", lambda *args: False)
        with pytest.raises(GraphError, match="generated twice"):
            enumerate_stable_graphs(3, 0, (1,))

    def test_shape_layout_required(self):
        G = dual_graph([0, 0], [(0, 1), (0, 0), (0, 1), (1, 1)])
        with pytest.raises(GraphError):
            _stabilizer_assignments(_LabelPlan(G), [1, 2])

    def test_one_search_per_shape_and_table(self, monkeypatch):
        # Each of the 42 shapes gets one plan, searched for its
        # automorphisms and for its first decoration; the 41 with more
        # than one decoration search for their layouts and for their
        # second decoration.  The other 31,073 decorations are labelled
        # from the tables alone.
        searches, plans = _count_searches_and_plans(monkeypatch)
        assert len(enumerate_stable_graphs(3, 0, (1, 2, 3, 4, 6))) == 31156
        assert len(searches) == 42 * 2 + 41 * 2
        assert len(plans) == 42

    def test_single_choice_builds_no_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("layout table built")

        monkeypatch.setattr(graphs, "_LayoutTable", refuse)
        assert len(enumerate_stable_graphs(4, 0, (1,))) == 379

    def test_table_checked_against_search(self, monkeypatch):
        # A table that lost its least layout mislabels the second
        # decoration of some shape, and the cross-check catches it.
        layouts = _LabelPlan.layouts

        def drop_least(plan):
            found = sorted(layouts(plan))
            return found[1:] if len(found) > 1 else found

        monkeypatch.setattr(_LabelPlan, "layouts", drop_least)
        with pytest.raises(GraphError, match="layout table misses"):
            enumerate_stable_graphs(3, 0, (1, 2))


def _count_searches_and_plans(monkeypatch):
    """Lists that grow by one per label search and per ``_LabelPlan`` built."""
    searches, plans = [], []
    search = graphs._least_edge_list
    build = _LabelPlan.__init__

    def counted_search(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    def counted_build(plan, G):
        plans.append(1)
        build(plan, G)

    monkeypatch.setattr(graphs, "_least_edge_list", counted_search)
    monkeypatch.setattr(_LabelPlan, "__init__", counted_build)
    return searches, plans


class TestAgainstOracles:
    """The fast enumeration against the brute-force algorithms it replaced.

    The assignment oracle visits every tuple in choices^edges, so shapes
    with more than ORACLE_TUPLES of them (the twelve 7-edge shapes of
    genus 3 with one leg, under five choices) are left to the pinned
    counts.  Labels are compared on up to ORACLE_LABELS decorations per
    shape, seeded.
    """

    ORACLE_TUPLES = 5**6
    ORACLE_LABELS = 200

    @pytest.mark.parametrize(
        "g, n, choices",
        [
            (g, n, choices)
            for g, n in ((1, 1), (2, 0), (2, 1), (3, 0), (3, 1))
            for choices in ((1,), (1, 2), (1, 2, 3, 4, 6))
        ],
    )
    def test_assignments_and_labels(self, g, n, choices):
        rng = random.Random(100 * g + 10 * n + len(choices))
        for shape in _enumerate_shapes(g, n):
            fast = _stabilizer_assignments(_LabelPlan(shape), choices)
            assert fast == sorted(fast)
            if len(choices) ** shape.n_edges <= self.ORACLE_TUPLES:
                assert set(fast) == set(_oracle_assignments(shape, choices))
            if len(fast) > self.ORACLE_LABELS:
                fast = rng.sample(fast, self.ORACLE_LABELS)
            for assign in fast:
                G = _decorate(shape, assign)
                assert canonical_form(G) == _brute_canonical_form(G)

    @pytest.mark.parametrize(
        "g, n",
        [
            (2, 0), (3, 0), (4, 0), (1, 2), (1, 3), (1, 4), (1, 5),
            (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (2, 4),
        ],
    )
    def test_shapes_match_labelling_every_realization(self, g, n):
        # Same representatives, in the same order.
        assert _enumerate_shapes(g, n) == _oracle_shapes(g, n)

    @pytest.mark.parametrize("g, n", [(3, 0), (2, 2), (3, 1)])
    def test_prefix_cut_only_where_full_test_rejects(self, g, n):
        # A relabelling smaller on the completed rows of a prefix is smaller
        # on every realization that extends it.
        for _, degrees, slot_members in _oracle_degree_blocks(g, n):
            nv = len(degrees)
            for pairs in _oracle_realizations(degrees):
                counts = [[0] * nv for _ in range(nv)]
                for t, h in pairs:
                    counts[t][h] += 1
                    counts[h][t] += t != h
                full = _has_smaller_relabelling(counts, slot_members, nv)
                for done in range(nv):
                    prefix = [
                        [c if min(a, b) < done else 0 for b, c in enumerate(row)]
                        for a, row in enumerate(counts)
                    ]
                    if _has_smaller_relabelling(prefix, slot_members, done):
                        assert full

    @pytest.mark.parametrize("g, n", [(2, 0), (3, 0), (3, 1), (2, 2), (4, 0)])
    def test_layouts(self, g, n):
        for shape in _enumerate_shapes(g, n):
            fast = _LabelPlan(shape).layouts()
            assert len(set(fast)) == len(fast)
            assert set(fast) == _oracle_layouts(shape)

    @pytest.mark.parametrize(
        "g, n, choices, sample",
        [
            (2, 0, (1, 2, 3), None),
            (2, 2, (1, 2, 3, 4, 6, 12), None),
            (3, 0, (1, 2, 3, 4, 6), None),
            (4, 0, (1, 2), 3000),
        ],
    )
    def test_table_labels(self, g, n, choices, sample):
        # Every decoration, or a seeded sample, labelled from the table
        # and by the search.
        decorations = [
            (plan, table, assign)
            for shape in _enumerate_shapes(g, n)
            for plan in [_LabelPlan(shape)]
            for table in [_LayoutTable(plan, choices)]
            for assign in _stabilizer_assignments(plan, choices)
        ]
        if sample is not None:
            decorations = random.Random(7).sample(decorations, sample)
        for plan, table, assign in decorations:
            assert table.label(assign) == plan.label(assign)

    @pytest.mark.parametrize(
        "g, n", [(2, 0), (3, 0), (4, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    )
    def test_shape_automorphisms(self, g, n):
        # At most 6 vertices, so the oracle tries at most 720 permutations.
        for shape in _enumerate_shapes(g, n):
            fast = _LabelPlan(shape).automorphisms()
            assert len(set(map(tuple, fast))) == len(fast)
            assert set(map(tuple, fast)) == set(map(tuple, _oracle_automorphisms(shape)))

    @pytest.mark.parametrize("g, choices", [(3, (1, 2, 3)), (4, (1,))])
    def test_random_relabellings_and_flips(self, g, choices):
        rng = random.Random(11 * g)
        family = enumerate_stable_graphs(g, 0, choices)
        for G in rng.sample(family, min(len(family), 150)):
            expected = _brute_canonical_form(G)
            assert canonical_form(G) == expected
            for _ in range(4):
                perm = list(range(G.n_vertices))
                rng.shuffle(perm)
                H = relabel(G, perm)
                for k in range(H.n_edges):
                    if rng.random() < 0.5:
                        H = flip_edge(H, k)
                assert canonical_form(H) == expected
                assert _brute_canonical_form(H) == expected

    def test_brute_labels_match_pairwise_isomorphism(self):
        sample = enumerate_stable_graphs(2, 0, [1, 2])[:12]
        rng = random.Random(3)
        graphs = sample + [
            relabel(G, rng.sample(range(G.n_vertices), G.n_vertices)) for G in sample
        ]
        for G, H in itertools.combinations(graphs, 2):
            same = _brute_canonical_form(G) == _brute_canonical_form(H)
            assert same == _isomorphic(G, H)


def _decorate(shape, assign):
    return DualGraph(
        shape.vertices,
        tuple(Edge(e.tail, e.head, l) for e, l in zip(shape.edges, assign)),
    )


def _class_permutations(keys):
    """All vertex permutations preserving the given per-vertex keys.

    Yields maps old index -> new index; the new index order sorts the
    classes by key.
    """
    order = sorted(range(len(keys)), key=lambda v: (keys[v], v))
    groups = []
    for v in order:
        if groups and keys[groups[-1][0]] == keys[v]:
            groups[-1].append(v)
        else:
            groups.append([v])
    slots = []
    start = 0
    for grp in groups:
        slots.append(range(start, start + len(grp)))
        start += len(grp)
    for assignment in itertools.product(
        *(itertools.permutations(slot) for slot in slots)
    ):
        perm = [0] * len(keys)
        for grp, placed in zip(groups, assignment):
            for v, target in zip(grp, placed):
                perm[v] = target
        yield perm


def _oracle_keys(G):
    """Per-vertex (genus, legs, valence, loops), the keys labels keep."""
    loops = [0] * G.n_vertices
    for e in G.edges:
        if e.tail == e.head:
            loops[e.tail] += 1
    return [
        (v.genus, len(v.legs), G.valence(i), loops[i])
        for i, v in enumerate(G.vertices)
    ]


def _oracle_layouts(shape):
    """The layouts that no other beats, found by sorting the parallel
    classes under every class-preserving vertex permutation."""
    classes = {}
    for k, e in enumerate(shape.edges):
        classes.setdefault((min(e.tail, e.head), max(e.tail, e.head)), []).append(k)
    layouts = {
        tuple(
            sorted(
                (min(perm[u], perm[v]), max(perm[u], perm[v]), tuple(ks))
                for (u, v), ks in classes.items()
            )
        )
        for perm in _class_permutations(_oracle_keys(shape))
    }

    def beats(a, b):
        for x, y in zip(a, b):
            if x != y:
                return x[:2] < y[:2]
        return False

    return {a for a in layouts if not any(beats(b, a) for b in layouts)}


def _brute_canonical_form(G):
    """canonical_form by its definition: the least sorted edge list over
    every class-preserving vertex permutation."""
    keys = _oracle_keys(G)
    best = min(
        sorted(
            (min(perm[e.tail], perm[e.head]), max(perm[e.tail], perm[e.head]), e.stabilizer)
            for e in G.edges
        )
        for perm in _class_permutations(keys)
    )
    vert_part = sorted((k[0], k[1]) for k in keys)
    return "V{};E{}".format(
        ",".join(f"{g}:{n}" for g, n in vert_part),
        ",".join(f"{u}-{v}:{l}" for u, v, l in best),
    )


def _oracle_automorphisms(shape):
    """Every vertex permutation that preserves genera, leg counts and the
    multiset of edge end pairs, found by trying them all."""
    pair = [(min(e.tail, e.head), max(e.tail, e.head)) for e in shape.edges]
    autos = []
    for perm in itertools.permutations(range(shape.n_vertices)):
        if all(
            shape.vertices[v].genus == shape.vertices[perm[v]].genus
            and len(shape.vertices[v].legs) == len(shape.vertices[perm[v]].legs)
            for v in range(shape.n_vertices)
        ) and sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in pair
        ) == sorted(pair):
            autos.append(perm)
    return autos


def _oracle_assignments(shape, choices):
    """One stabilizer tuple per automorphism orbit, by minimising an orbit
    key over every automorphism for every tuple in choices^edges."""
    pair = [(min(e.tail, e.head), max(e.tail, e.head)) for e in shape.edges]
    classes = {}
    for k, key in enumerate(pair):
        classes.setdefault(key, []).append(k)
    class_keys = sorted(classes)
    autos = _oracle_automorphisms(shape)
    out = []
    seen = set()
    for assign in itertools.product(choices, repeat=shape.n_edges):
        if any(
            assign[k] > assign[k + 1]
            for k in range(shape.n_edges - 1)
            if pair[k] == pair[k + 1]
        ):
            # Sorting a parallel run is an automorphism and gives a tuple
            # that comes earlier in product order, so this one is never the
            # first of its orbit.
            continue
        best = None
        for perm in autos:
            mapped = {}
            for u, v in class_keys:
                target = (min(perm[u], perm[v]), max(perm[u], perm[v]))
                mapped.setdefault(target, []).extend(
                    assign[k] for k in classes[(u, v)]
                )
            candidate = tuple(tuple(sorted(mapped[key])) for key in sorted(mapped))
            if best is None or candidate < best:
                best = candidate
        if best not in seen:
            seen.add(best)
            out.append(assign)
    return out


def _oracle_realizations(degrees, i=0, acc=()):
    """Every loopy multigraph with the given degrees, as sorted (i, j) edge
    tuples, in lexicographic order of the adjacency counts' upper
    triangle read row by row; nothing is pruned."""
    n = len(degrees)
    while i < n and degrees[i] == 0:
        i += 1
    if i == n:
        yield acc
        return
    for nloops in range(degrees[i] // 2 + 1):
        for picked in _compositions(degrees[i] - 2 * nloops, degrees[i + 1 :]):
            remaining = list(degrees)
            remaining[i] = 0
            edges = [(i, i)] * nloops
            for j, c in enumerate(picked, i + 1):
                remaining[j] -= c
                edges += [(i, j)] * c
            yield from _oracle_realizations(remaining, i + 1, acc + tuple(edges))


def _oracle_degree_blocks(g, n_legs):
    """(vertices, degrees, slot_members) per block of equal vertex keys in
    the shape search of (g, n_legs), in search order."""
    for nv in range(1, 2 * g - 2 + n_legs + 1):
        for genera in itertools.combinations_with_replacement(range(g + 1), nv):
            if sum(genera) > g:
                continue
            m = g - sum(genera) + nv - 1
            for legs in _compositions(n_legs, (n_legs,) * nv):
                if not _sorted_within(legs, genera):
                    continue
                minima = [
                    max(3 - 2 * genera[i] - legs[i], 1 if nv > 1 else 0)
                    for i in range(nv)
                ]
                marks = iter(range(1, n_legs + 1))
                verts = tuple(
                    Vertex(genera[i], tuple(itertools.islice(marks, legs[i])))
                    for i in range(nv)
                )
                runs = list(zip(genera, legs))
                for degrees in _degree_sequences(2 * m, minima):
                    if not _sorted_within(degrees, runs):
                        continue
                    keys = list(zip(runs, degrees))
                    slots = [tuple(q for q in range(nv) if keys[q] == k) for k in keys]
                    yield verts, degrees, slots


def _oracle_shapes(g, n_legs):
    """The shape search that labels every realization and keeps the first
    one met with each label, in the order first met."""
    shapes = {}
    for verts, degrees, _ in _oracle_degree_blocks(g, n_legs):
        for pairs in _oracle_realizations(degrees):
            try:
                G = DualGraph(verts, tuple(Edge(t, h) for t, h in pairs))
            except DisconnectedGraph:
                continue
            shapes.setdefault(canonical_form(G), G)
    return list(shapes.values())


def _oracle_count(g, choices):
    """Brute-force count of decorated stable graphs: every per-edge
    assignment on every shape, deduplicated by the brute-force label."""
    shapes = enumerate_stable_graphs(g, 0, [1])
    labels = set()
    for shape in shapes:
        for assign in itertools.product(choices, repeat=shape.n_edges):
            labels.add(_brute_canonical_form(_decorate(shape, assign)))
    return len(labels)


def _isomorphic(G, H):
    if G.n_vertices != H.n_vertices or G.n_edges != H.n_edges:
        return False

    def edge_multiset(graph, perm):
        return sorted(
            (min(perm[e.tail], perm[e.head]), max(perm[e.tail], perm[e.head]), e.stabilizer)
            for e in graph.edges
        )

    def vertex_data(graph, perm):
        out = [None] * graph.n_vertices
        for v, vert in enumerate(graph.vertices):
            out[perm[v]] = (vert.genus, len(vert.legs))
        return out

    identity = list(range(H.n_vertices))
    target_edges = edge_multiset(H, identity)
    target_vertices = vertex_data(H, identity)
    for perm in itertools.permutations(range(G.n_vertices)):
        if vertex_data(G, perm) == target_vertices and edge_multiset(G, perm) == target_edges:
            return True
    return False
