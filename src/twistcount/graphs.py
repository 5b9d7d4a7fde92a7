"""Decorated dual graphs of twisted nodal curves.

A nodal curve is modelled by its dual graph: one vertex per irreducible
component (decorated with the component's genus and the markings lying on
it), one edge per node.  Each edge carries the order of the cyclic
stabilizer at the node; an ordinary node has order 1.  Edges are stored
with an orientation (tail, head).  The orientation is bookkeeping for the
chain-complex maps built downstream: isomorphism and every numeric
invariant ignore it, and the head branch is the "+" branch wherever a
sign convention is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, getitem, itemgetter

__all__ = [
    "GraphError",
    "DisconnectedGraph",
    "BadIndex",
    "UnsupportedGenus",
    "SizeLimitExceeded",
    "MultiIndexLengthMismatch",
    "Vertex",
    "Edge",
    "DualGraph",
    "dual_graph",
    "MultiIndex",
    "NodeType",
    "genus",
    "betti",
    "classify_node",
    "node_type_index",
    "is_stable",
    "is_l_stable",
    "canonical_form",
    "enumerate_stable_graphs",
    "relabel",
    "flip_edge",
]

MAX_CANONICAL_VERTICES = 10
MAX_ENUMERATION_VERTICES = 8


class GraphError(ValueError):
    """Base class for dual-graph construction and query errors."""


class DisconnectedGraph(GraphError):
    pass


class BadIndex(GraphError):
    pass


class UnsupportedGenus(GraphError):
    pass


class SizeLimitExceeded(GraphError):
    pass


class MultiIndexLengthMismatch(GraphError):
    pass


@dataclass(frozen=True)
class Vertex:
    """An irreducible component: genus plus the markings lying on it."""

    genus: int
    legs: tuple[int, ...] = ()


@dataclass(frozen=True)
class Edge:
    """A node of the curve, oriented tail -> head, with stabilizer order."""

    tail: int
    head: int
    stabilizer: int = 1


@dataclass(frozen=True, eq=True)
class DualGraph:
    """A connected decorated dual graph.  Loops and parallel edges allowed."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __hash__(self):
        # Graphs key several caches; hashing the full tuples every lookup
        # dominates otherwise.  The cached hash is read as an attribute,
        # never through __dict__, which would give every hashed graph a
        # dict of its own.
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash((self.vertices, self.edges))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __post_init__(self):
        self._check_fields()
        n = len(self.vertices)
        if len(_component(n, [(e.tail, e.head) for e in self.edges])) != n:
            raise DisconnectedGraph("underlying graph is not connected")

    def _check_fields(self):
        """Every construction check except connectivity."""
        if not self.vertices:
            raise GraphError("a dual graph needs at least one vertex")
        seen_legs = set()
        for i, v in enumerate(self.vertices):
            if v.genus < 0:
                raise GraphError(f"vertex {i}: negative genus {v.genus}")
            for leg in v.legs:
                if leg in seen_legs:
                    raise GraphError(f"marking {leg!r} appears twice")
                seen_legs.add(leg)
        n = len(self.vertices)
        for k, e in enumerate(self.edges):
            _check_edge(k, e, n)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def valence(self, v: int) -> int:
        """Number of branches at vertex v; a loop counts twice."""
        return sum((e.tail == v) + (e.head == v) for e in self.edges)

    def incidences(self, v: int) -> list[tuple[int, bool]]:
        """Branches at v as (edge index, is_head) pairs; loops yield both."""
        out = []
        for k, e in enumerate(self.edges):
            if e.head == v:
                out.append((k, True))
            if e.tail == v:
                out.append((k, False))
        return out

    def stabilizers(self) -> tuple[int, ...]:
        return tuple(e.stabilizer for e in self.edges)


def dual_graph(vertices, edges=()) -> DualGraph:
    """Build a DualGraph from plain data.

    ``vertices`` is a sequence whose items are either a bare genus or a
    (genus, legs) pair; ``edges`` items are (tail, head) or
    (tail, head, stabilizer) tuples.
    """
    vs = []
    for spec in vertices:
        if isinstance(spec, int):
            vs.append(Vertex(spec))
        else:
            g, legs = spec
            vs.append(Vertex(g, tuple(legs)))
    es = []
    for spec in edges:
        if len(spec) == 2:
            t, h = spec
            es.append(Edge(t, h))
        else:
            t, h, l = spec
            es.append(Edge(t, h, l))
    return DualGraph(tuple(vs), tuple(es))


def _check_edge(k: int, e: Edge, n: int) -> None:
    """The checks of ``DualGraph._check_fields`` on edge k of a graph with
    n vertices."""
    if not (0 <= e.tail < n and 0 <= e.head < n):
        raise BadIndex(f"edge {k}: endpoint out of range 0..{n - 1}")
    if e.stabilizer < 1:
        raise GraphError(f"edge {k}: stabilizer {e.stabilizer} < 1")


def _edge_table(n: int, edges, choices) -> list[dict[int, Edge]]:
    """Per position of ``edges``, an Edge on its pair for each stabilizer
    in ``choices``, keyed by the stabilizer, each checked once by
    ``_check_edge`` for a graph with n vertices.

    A decoration of a shape built from this table, with the shape's
    vertices, has passed every check of ``DualGraph`` but connectivity,
    which depends only on the pairs, so it can skip the constructor.
    """
    table = []
    for k, e in enumerate(edges):
        row = {}
        for l in choices:
            row[l] = edge = Edge(e.tail, e.head, l)
            _check_edge(k, edge, n)
        table.append(row)
    return table


def _component(n: int, pairs, start: int = 0) -> set[int]:
    """Vertices reachable from start in the graph on range(n) whose edges
    are the (tail, head) pairs."""
    adjacency = [[] for _ in range(n)]
    for t, h in pairs:
        adjacency[t].append(h)
        adjacency[h].append(t)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@dataclass(frozen=True)
class MultiIndex:
    """Stability profile (l_0, ..., l_{floor(g/2)}), one entry per node type."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise GraphError("empty multiindex")
        if any(l < 1 for l in self.entries):
            raise GraphError("multiindex entries must be >= 1")

    @classmethod
    def of(cls, entries) -> "MultiIndex":
        return cls(tuple(int(l) for l in entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]


@dataclass(frozen=True)
class NodeType:
    """Type of a node: nonseparating (index 0) or separating of index i.

    For a separating node the index is the smaller of the two side genera
    (>= 1 on unpointed stable graphs) and the side partition is recorded
    with the head side as "+".
    """

    separating: bool
    index: int
    plus_vertices: frozenset[int] | None = None
    minus_vertices: frozenset[int] | None = None
    plus_edges: frozenset[int] | None = None
    minus_edges: frozenset[int] | None = None


def betti(G: DualGraph) -> int:
    """First Betti number 1 - |V| + |E| of the (connected) graph."""
    return 1 - G.n_vertices + G.n_edges


def genus(G: DualGraph) -> int:
    """Arithmetic genus: b_1 plus the sum of the vertex genera."""
    return betti(G) + sum(v.genus for v in G.vertices)


def classify_node(G: DualGraph, e: int) -> NodeType:
    """Classify edge e as nonseparating or separating of index min(g+, g-).

    The "+" side is the component of the head after removing e.  Flipping
    the orientation of e swaps the sides and keeps the index.
    """
    if not (0 <= e < G.n_edges):
        raise BadIndex(f"no edge {e}")
    edge = G.edges[e]
    if edge.tail == edge.head:
        return NodeType(separating=False, index=0)
    pairs = [(f.tail, f.head) for k, f in enumerate(G.edges) if k != e]
    plus = _component(G.n_vertices, pairs, edge.head)
    if edge.tail in plus:
        return NodeType(separating=False, index=0)
    minus = set(range(G.n_vertices)) - plus
    eplus, eminus = set(), set()
    for k, f in enumerate(G.edges):
        if k == e:
            continue
        (eplus if f.tail in plus else eminus).add(k)
    g_plus = sum(G.vertices[v].genus for v in plus) + 1 - len(plus) + len(eplus)
    g_minus = sum(G.vertices[v].genus for v in minus) + 1 - len(minus) + len(eminus)
    return NodeType(
        separating=True,
        index=min(g_plus, g_minus),
        plus_vertices=frozenset(plus),
        minus_vertices=frozenset(minus),
        plus_edges=frozenset(eplus),
        minus_edges=frozenset(eminus),
    )


def node_type_index(G: DualGraph, e: int) -> int:
    return classify_node(G, e).index


def is_stable(G: DualGraph) -> bool:
    """Every vertex satisfies 2g - 2 + valence + legs > 0 (loops count twice)."""
    return all(
        2 * v.genus - 2 + G.valence(i) + len(v.legs) > 0
        for i, v in enumerate(G.vertices)
    )


def _check_profile_length(g: int, l: MultiIndex) -> None:
    """MultiIndexLengthMismatch unless l has one entry per node type of
    genus g, types 0 to g // 2."""
    if len(l) != g // 2 + 1:
        raise MultiIndexLengthMismatch(
            f"multiindex has {len(l)} entries, genus {g} needs {g // 2 + 1}"
        )


def is_l_stable(G: DualGraph, l: MultiIndex) -> bool:
    """Stable, and every node of type i has stabilizer order l_i."""
    _check_profile_length(genus(G), l)
    if not is_stable(G):
        return False
    return all(
        e.stabilizer == l[node_type_index(G, k)] for k, e in enumerate(G.edges)
    )


def relabel(G: DualGraph, perm) -> DualGraph:
    """Apply a vertex permutation: vertex v becomes perm[v]."""
    n = G.n_vertices
    if sorted(perm) != list(range(n)):
        raise BadIndex("not a permutation of the vertices")
    verts = [None] * n
    for v, target in enumerate(perm):
        verts[target] = G.vertices[v]
    edges = tuple(Edge(perm[e.tail], perm[e.head], e.stabilizer) for e in G.edges)
    return DualGraph(tuple(verts), edges)


def flip_edge(G: DualGraph, e: int) -> DualGraph:
    """Reverse the orientation of edge e (pure bookkeeping change)."""
    if not (0 <= e < G.n_edges):
        raise BadIndex(f"no edge {e}")
    edges = list(G.edges)
    old = edges[e]
    edges[e] = Edge(old.head, old.tail, old.stabilizer)
    return DualGraph(G.vertices, tuple(edges))


def _vertex_keys(G: DualGraph) -> list[tuple[int, int, int, int]]:
    """Per-vertex invariant (genus, legs, valence, loops)."""
    valence = [0] * G.n_vertices
    loops = [0] * G.n_vertices
    for e in G.edges:
        valence[e.tail] += 1
        valence[e.head] += 1
        if e.tail == e.head:
            loops[e.tail] += 1
    return [
        (v.genus, len(v.legs), valence[i], loops[i])
        for i, v in enumerate(G.vertices)
    ]


def canonical_form(G: DualGraph) -> str:
    """Canonical label: equal strings exactly for isomorphic decorated graphs.

    Isomorphism preserves vertex genera, per-vertex leg counts, and edge
    stabilizers; edge orientations and marking identities are ignored.
    The vertices are split into classes by the invariant key (genus, legs,
    valence, loops) and the classes take consecutive label ranges in key
    order.  The label is the least sorted list of relabelled edge triples
    (min end, max end, stabilizer) over all vertex permutations that keep
    each vertex inside its class's range.  That minimum is found by a
    branch-and-bound over the labels 0, 1, ... (see ``_least_edge_list``),
    so it is exact but only meant for graphs of at most
    ``MAX_CANONICAL_VERTICES`` vertices.
    """
    return _LabelPlan(G).label(G.stabilizers())


class _LabelPlan:
    """The part of ``canonical_form`` that ignores stabilizers.

    The vertex keys, the class slots, the vertex part of the label and
    the edge endpoints depend only on the underlying graph, so graphs
    that differ only in their stabilizers share one plan.  The plan's
    ``_least_edge_list`` search answers three questions: the label of one
    decoration (``label``, used by ``canonical_form`` and for a shape's
    first decorations), the shape's automorphisms (``automorphisms``) and
    its layouts (``layouts``), from which a ``_LayoutTable`` labels the
    rest of an enumerated family.  ``classes`` maps each vertex pair
    (u <= v) that carries edges to the indices of its parallel class.
    """

    __slots__ = ("incidence", "slot_members", "head", "classes")

    def __init__(self, G: DualGraph):
        if G.n_vertices > MAX_CANONICAL_VERTICES:
            raise SizeLimitExceeded(
                f"{G.n_vertices} vertices exceeds the canonical-form bound "
                f"{MAX_CANONICAL_VERTICES}"
            )
        keys = _vertex_keys(G)
        order = sorted(range(G.n_vertices), key=lambda v: (keys[v], v))
        # Label s may go to any vertex of the class whose range covers s.
        self.slot_members: list[tuple[int, ...]] = []
        for _, group in itertools.groupby(order, key=keys.__getitem__):
            members = tuple(group)
            self.slot_members += [members] * len(members)
        # Branches at each vertex as (far end, edge index); a loop once.
        self.incidence: list[list[tuple[int, int]]] = [[] for _ in G.vertices]
        self.classes: dict[tuple[int, int], list[int]] = {}
        for k, e in enumerate(G.edges):
            self.incidence[e.tail].append((e.head, k))
            if e.head != e.tail:
                self.incidence[e.head].append((e.tail, k))
            self.classes.setdefault((min(e.tail, e.head), max(e.tail, e.head)), []).append(k)
        # Class layout sorts by the full invariant key; projecting to (genus,
        # legs) is still sorted, so the vertex part is permutation-independent.
        vert_part = sorted((k[0], k[1]) for k in keys)
        self.head = "V{};E".format(",".join(f"{g}:{n}" for g, n in vert_part))

    def label(self, stabilizers) -> str:
        """Canonical label of the graph with these edge stabilizers."""
        nbrs = [
            sorted([(w, stabilizers[k]) for w, k in branches])
            for branches in self.incidence
        ]
        ((best, _),) = _least_edge_list(nbrs, self.slot_members)
        return self.head + ",".join(f"{u}-{v}:{l}" for u, v, l in best)

    def automorphisms(self) -> list[list[int]]:
        """Vertex permutations (perm[v] is the image of v) that preserve the
        genera, the leg counts and the multiset of edge end pairs.

        The labellings that tie with the least edge list, every stabilizer
        taken as 1, are one labelling composed with every automorphism, so
        each tied labelling composed with the inverse of the first is an
        automorphism, and all arise.
        """
        nbrs = [sorted([(w, 1) for w, _ in branches]) for branches in self.incidence]
        ((_, ties),) = _least_edge_list(nbrs, self.slot_members)
        return [[w for _, w in sorted(zip(placed, ties[0]))] for placed in ties]

    def layouts(self) -> list[tuple[tuple[int, int, tuple[int, ...]], ...]]:
        """The layouts that no other layout beats, each as its blocks
        (u, v, edges of the class).

        A labelling sends each parallel class (the edges on one vertex
        pair) to a label pair; sorted by pair, the classes form a layout.
        When every class carries a non-decreasing run of stabilizers, the
        sorted edge list under that labelling is the blocks in order, each
        expanded to its class's run.  A layout beats another when the two
        agree block for block up to a block where it has the smaller pair:
        its edge list is then smaller for every decoration, so the least
        edge list comes from a layout that no other beats.  The search is
        ``_least_edge_list`` at width 2, with each branch's entry naming its
        class (by the class's first edge) instead of a stabilizer.
        """
        edges = {ks[0]: tuple(ks) for ks in self.classes.values()}
        name = {k: ks[0] for ks in self.classes.values() for k in ks}
        nbrs = [sorted({(w, name[k]) for w, k in branches}) for branches in self.incidence]
        return [
            tuple((u, v, edges[c]) for u, v, c in layout)
            for layout, _ in _least_edge_list(nbrs, self.slot_members, width=2)
        ]


class _LayoutTable:
    """Labels of a shape's decorations from its layouts (``_LabelPlan.layouts``),
    for decorations whose stabilizers run non-decreasing along each
    parallel class, as ``_stabilizer_assignments`` gives them, and are
    drawn from ``choices``.

    The least edge list is the least over the layouts, each expanded to
    the decoration's runs.  A layout reads the runs in block order through
    an itemgetter, and gives each edge in that order the pair of its
    block.  Layouts with the same pairs form a group, and inside a group
    the least edge list is the one with the least stabilizer tuple, taken
    directly; most shapes have one group.  Groups are compared only with
    each other: the code (u * n + v) * bound of each edge's pair, with
    bound above every choice, plus its stabilizer gives the edge list as
    integers in the same order.  The winner is formatted from the group's
    text table, per position the text "u-v:l" of each choice l, so the
    table grows with the choices, not with their size.
    """

    __slots__ = ("head", "groups")

    def __init__(self, plan: _LabelPlan, choices):
        n = len(plan.incidence)
        bound = max(choices) + 1
        self.head = plan.head
        by_pairs: dict[tuple, dict[tuple, None]] = {}
        for layout in plan.layouts():
            pairs = tuple((u, v) for u, v, ks in layout for _ in ks)
            positions = tuple(k for _, _, ks in layout for k in ks)
            by_pairs.setdefault(pairs, {})[positions] = None
        self.groups = []
        for pairs, getters in by_pairs.items():
            bases = tuple((u * n + v) * bound for u, v in pairs)
            texts = tuple({l: f"{u}-{v}:{l}" for l in choices} for u, v in pairs)
            self.groups.append((bases, texts, [_runs_getter(p) for p in getters]))

    def label(self, stabilizers) -> str:
        """Canonical label of the graph with these edge stabilizers."""
        picks = [
            (gets[0](stabilizers) if len(gets) == 1 else min([get(stabilizers) for get in gets]),
             texts, bases)
            for bases, texts, gets in self.groups
        ]
        # Groups differ in their pairs, so no two codes tie.
        runs, texts, _ = picks[0] if len(picks) == 1 else min(picks, key=_edge_codes)
        return self.head + ",".join(map(getitem, texts, runs))


def _edge_codes(pick):
    """The edge list of a group's least runs, coded as integers."""
    runs, _, bases = pick
    return tuple(map(add, bases, runs))


def _runs_getter(positions):
    """An itemgetter returning the tuple of the items at ``positions``."""
    # itemgetter of one index returns the bare item; a slice keeps the tuple.
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


def _least_edge_list(nbrs, slot_members, width=3):
    """The least sorted triple lists over labellings that give slot s a
    vertex of ``slot_members[s]``, as (list, labellings) pairs holding
    every labelling that gives the list; a labelling is the tuple of
    vertices holding the labels 0, 1, ...  ``nbrs[x]`` lists x's branches
    as sorted (far end, entry) pairs.

    One list beats another when, at the first triple where they differ,
    its first ``width`` entries are smaller; beating is transitive.  With
    width 3 that is the lexicographic order, so the result is the one
    least list.  With width 2 triples that differ only in the entry are
    not comparable, and the result is every list that no other beats.

    Labels are handed out in slot order.  Once labels 0..s are placed, the
    triples (u, v, l) with both ends labelled are fixed, and for each u they
    precede every triple (u, v', l') whose far end is still unlabelled
    (v' > s).  So the fixed rows u = 0, 1, ... up to and including the
    first row with an unlabelled far end form a prefix of every completion,
    and that row's next triple is at least (u, s + 1, 0).  A branch whose
    prefix, with that bound appended, is beaten by a list found so far
    cannot give a result and is cut.  A prefix that ties with a found list
    is not cut, so every labelling that gives a result is visited.

    The search keeps its stack explicitly (per slot, the vertex placed
    and an iterator over the members still to try), so it leaves no
    reference cycle for the garbage collector.
    """
    n = len(nbrs)
    label = [-1] * n
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    open_ends = [0] * n
    placed = [-1] * n  # the vertex holding label s, or -1
    pending = [iter(slot_members[0])] + [None] * (n - 1)
    front: list[tuple[list[tuple[int, int, int]], list[tuple[int, ...]]]] = []
    s = 0
    while s >= 0:
        x = placed[s]
        if x >= 0:
            # Take label s back from x, with the triples it fixed.  Labels
            # above s are free again, so x's labelled neighbours are those
            # it had when placed.
            for w, _ in nbrs[x]:
                u = label[w]
                if u >= 0:
                    rows[u].pop()
                    if u != s:
                        open_ends[u] += 1
            open_ends[s] = 0
            label[x] = -1
        for x in pending[s]:
            if label[x] < 0:
                break
        else:
            placed[s] = -1
            s -= 1
            continue
        placed[s] = x
        label[x] = s
        # Triples landing in one row during one step come in l order,
        # because nbrs[x] is sorted.
        for w, l in nbrs[x]:
            u = label[w]
            if u >= 0:
                rows[u].append((u, s, l))
                if u != s:
                    open_ends[u] -= 1
            else:
                open_ends[s] += 1
        if not front and s < n - 1:
            s += 1
            pending[s] = iter(slot_members[s])
            continue
        prefix: list[tuple[int, int, int]] = []
        for u in range(s + 1):
            prefix += rows[u]
            if open_ends[u]:
                prefix.append((u, s + 1, 0))
                break
        if s == n - 1:
            # Every end is labelled, so no bound was appended.
            for other, ties in front:
                if other == prefix:
                    ties.append(tuple(placed))
                    break
            else:
                if not _beaten(prefix, front, width):
                    front = [item for item in front if not _beats(prefix, item[0], width)]
                    front.append((prefix, [tuple(placed)]))
        elif not _beaten(prefix, front, width):
            s += 1
            pending[s] = iter(slot_members[s])
    return front


def _beaten(prefix, front, width) -> bool:
    """Whether a list in the front beats the prefix."""
    for other, _ in front:
        if _beats(other, prefix, width):
            return True
    return False


def _beats(a, b, width) -> bool:
    """Whether triple list a beats b, which is no longer: at the first
    triple where they differ, a's first ``width`` entries are smaller."""
    if not b > a[: len(b)]:
        return False
    if width == 3:
        return True
    for x, y in zip(a, b):
        if x != y:
            return x[:width] < y[:width]


def _compositions(total: int, caps):
    """Tuples c with sum ``total`` and 0 <= c[k] <= caps[k], in
    lexicographic order."""
    if not caps:
        if total == 0:
            yield ()
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - first, caps[1:]):
            yield (first,) + rest


def _degree_sequences(total: int, minima):
    """Degree vectors d >= minima with sum(d) == total, in lexicographic order."""
    slack = total - sum(minima)
    for extra in _compositions(slack, (slack,) * len(minima)):
        yield tuple(m + x for m, x in zip(minima, extra))


def _realizations(degrees, slot_members, counts, i: int = 0, acc: tuple = ()):
    """Loopy multigraphs (as sorted (i, j) edge tuples) with the given
    degrees that no relabelling inside ``slot_members`` makes smaller.

    Vertices before ``i`` are already saturated by the edges in ``acc``,
    which fill rows 0..i-1 of the symmetric count matrix ``counts``;
    vertex i takes its loops first, then its edges to later vertices,
    setting row i for its subtree and clearing it after.  The multigraphs
    come in lexicographic order of their counts' upper triangle, read row
    by row.  Rows before i never change below, so a relabelling smaller on
    them (``_has_smaller_relabelling``) is smaller at every leaf, and rows
    that reach no later vertex make every leaf disconnected: either cuts
    the subtree.  At a leaf the relabelling test is the full one.
    """
    n = len(degrees)
    while i < n and degrees[i] == 0:
        i += 1
    if 0 < i < n and not any(any(row[i:]) for row in counts[:i]):
        return
    if _has_smaller_relabelling(counts, slot_members, i):
        return
    if i == n:
        yield acc
        return
    budget = degrees[i]
    row = counts[i]
    for nloops in range(budget // 2 + 1):
        row[i] = nloops
        for picked in _compositions(budget - 2 * nloops, degrees[i + 1 :]):
            remaining = list(degrees)
            remaining[i] = 0
            edges = acc + ((i, i),) * nloops
            for j, c in enumerate(picked, i + 1):
                remaining[j] -= c
                row[j] = counts[j][i] = c
                edges += ((i, j),) * c
            yield from _realizations(remaining, slot_members, counts, i + 1, edges)
    for j in range(i, n):
        row[j] = counts[j][i] = 0


def _enumerate_shapes(g: int, n_legs: int) -> list[DualGraph]:
    """Connected stable shapes (stabilizer 1) of genus g with n unlabeled legs.

    A stable graph has at most 2g - 2 + n vertices, so every such count
    of vertices is searched.

    Labellings are visited with genera, then legs, then degrees in
    lexicographic order, and those with unsorted vertex keys (genus, legs,
    degree) are skipped, so each class is met in one block of equal keys
    only.  Inside a block ``_realizations`` visits in lexicographic order
    of the key K: the upper triangle of the adjacency-count matrix, loops
    on the diagonal, read row by row.  Two realizations of a class in one
    block differ by a permutation of positions inside runs of equal keys,
    so a realization is the first of its class met exactly when no such
    permutation gives a smaller K (``_has_smaller_relabelling``).
    ``_realizations`` yields only those, cutting each prefix whose
    complete rows already give a smaller K; they are returned
    unlabelled, in visiting order.
    """
    shapes: list[DualGraph] = []
    for nv in range(1, 2 * g - 2 + n_legs + 1):
        for genera in itertools.combinations_with_replacement(range(g + 1), nv):
            total_genus = sum(genera)
            if total_genus > g:
                continue
            b1 = g - total_genus
            m = b1 + nv - 1
            for legs in _compositions(n_legs, (n_legs,) * nv):
                if not _sorted_within(legs, genera):
                    continue
                minima = [
                    max(3 - 2 * genera[i] - legs[i], 1 if nv > 1 else 0)
                    for i in range(nv)
                ]
                runs = list(zip(genera, legs))
                marks = iter(range(1, n_legs + 1))
                verts = tuple(
                    Vertex(genera[i], tuple(itertools.islice(marks, legs[i])))
                    for i in range(nv)
                )
                for degrees in _degree_sequences(2 * m, minima):
                    if not _sorted_within(degrees, runs):
                        continue
                    keys = list(zip(runs, degrees))
                    slot_members = [
                        tuple(q for q in range(nv) if keys[q] == keys[p]) for p in range(nv)
                    ]
                    counts = [[0] * nv for _ in range(nv)]
                    for pairs in _realizations(degrees, slot_members, counts):
                        try:
                            shapes.append(DualGraph(verts, tuple(Edge(t, h) for t, h in pairs)))
                        except DisconnectedGraph:
                            pass
    return shapes


def _has_smaller_relabelling(counts, slot_members, done: int) -> bool:
    """Whether a relabelling that gives label p a vertex of
    ``slot_members[p]`` makes the key smaller; ``counts`` is the
    symmetric matrix of edge counts, loops on the diagonal, and the key
    is its upper triangle read row by row.

    Only rows before ``done`` are final: entry (a, b) is final when
    a < done or b < done.  A comparison stops, undecided, at the first
    position where either key's entry is not final; with ``done ==
    len(counts)`` this is the full test.

    Labels are placed in order 0, 1, ...; once labels 0..s are placed,
    row 0 of the relabelled key is fixed up to column s.  A candidate
    whose entry there exceeds the graph's own, or is not final, is cut,
    one below it ends the search, and on a tie the next label is placed.
    When every label is placed, row 0 ties and the remaining final rows
    decide.  The stack is kept explicitly (per label, the vertex placed
    and an iterator over the members still to try), so no reference
    cycle is left behind.
    """
    n = len(counts)
    later_rows = [(p, q) for p in range(1, done) for q in range(p, n)]
    used = [False] * n
    placed = [-1] * n
    pending = [iter(slot_members[0])] + [None] * (n - 1)
    s = 0
    while s >= 0:
        x = placed[s]
        if x >= 0:
            used[x] = False
            placed[s] = -1
        own = counts[0][s]
        for x in pending[s]:
            if not used[x]:
                first = placed[0] if s else x
                if first >= done and x >= done:
                    continue
                entry = counts[first][x]
                if entry < own:
                    return True
                if entry == own:
                    break
        else:
            s -= 1
            continue
        placed[s] = x
        used[x] = True
        if s < n - 1:
            s += 1
            pending[s] = iter(slot_members[s])
            continue
        for p, q in later_rows:
            a, b = placed[p], placed[q]
            if a >= done and b >= done:
                break
            entry = counts[a][b]
            if entry != counts[p][q]:
                if entry < counts[p][q]:
                    return True
                break
    return False


def _sorted_within(values, runs) -> bool:
    """True when values never decrease inside a run of equal ``runs`` entries."""
    return all(
        values[i - 1] <= values[i] or runs[i - 1] != runs[i]
        for i in range(1, len(values))
    )


def _stabilizer_assignments(plan: _LabelPlan, choices) -> list[tuple[int, ...]]:
    """Stabilizer tuples, one per orbit of the automorphisms of plan's shape.

    Two tuples share an orbit when a vertex automorphism, together with any
    reordering of the edges inside each parallel class, carries one to the
    other.  Each orbit is represented by its lexicographically least tuple,
    and the list is in lexicographic order.

    Generated orderly: every parallel class takes a non-decreasing run of
    choices, and the combination is kept only if it is lexicographically
    at most its image under each automorphism, acting as a permutation of
    the parallel classes; the test stops at the first image that is
    smaller.  The images are found once per shape, so a combination
    costs only those comparisons.  Per-class runs in class order are the
    flat tuple only because the shape's edges are grouped by vertex pair
    in sorted pair order (the layout ``_realizations`` produces); other
    layouts raise GraphError.
    """
    class_keys = sorted(plan.classes)
    flat = [k for key in class_keys for k in plan.classes[key]]
    if flat != list(range(len(flat))):
        raise GraphError(
            "stabilizer assignments need the edges grouped by vertex pair in sorted order"
        )
    if len(choices) == 1:
        # One run per class, fixed by every automorphism.
        return [tuple(choices) * len(flat)]
    position = {key: i for i, key in enumerate(class_keys)}
    sources = set()
    for perm in plan.automorphisms():
        source = [0] * len(class_keys)
        for i, (u, v) in enumerate(class_keys):
            source[position[(min(perm[u], perm[v]), max(perm[u], perm[v]))]] = i
        sources.add(tuple(source))
    # The image of a combination puts class i's run at the class that i
    # maps to; the identity never rejects anything.
    sources.discard(tuple(range(len(class_keys))))
    images = [itemgetter(*source) for source in sources]
    out = []
    runs = (
        itertools.combinations_with_replacement(choices, len(plan.classes[key]))
        for key in class_keys
    )
    for combo in itertools.product(*runs):
        for image in images:
            if image(combo) < combo:
                break
        else:
            out.append(tuple(itertools.chain.from_iterable(combo)))
    return out


def enumerate_stable_graphs(
    g: int,
    n_legs: int,
    stabilizer_choices,
) -> list[DualGraph]:
    """All stable decorated graphs of genus g with n legs, one per iso class.

    Every edge stabilizer is drawn from ``stabilizer_choices``.  Output
    order is deterministic (sorted canonical labels).  Each shape class is
    decorated once per orbit of stabilizer tuples, so no two outputs share
    a label; shapes are labelled only through their decorations, so a
    shape met twice raises ``GraphError`` here.  Whatever depends only
    on the shape is built once per shape, and each decoration is looked
    up from it.  One ``_LabelPlan`` serves the assignments, layouts and
    labels: a shape with one decoration has it labelled by the search; a
    shape with more builds one ``_LayoutTable`` and labels every
    decoration from it, after checking the table against the search on
    the first two decorations (``GraphError`` if they differ).  One
    ``_edge_table`` holds the checked Edge of each (position,
    stabilizer), and each decoration is the shape's vertices with edges
    read from that table, set on a new ``DualGraph`` without its
    constructor, since the shape and the table have passed its checks.
    Families whose graphs may have more than ``MAX_ENUMERATION_VERTICES``
    vertices (2g - 2 + n of them) raise ``UnsupportedGenus`` before any
    search, as do genus 0 and the empty families (2g - 2 + n <= 0).
    """
    if g < 0 or n_legs < 0:
        raise UnsupportedGenus(f"(g, n) = ({g}, {n_legs}) must be non-negative")
    if 2 * g - 2 + n_legs <= 0:
        raise UnsupportedGenus(f"no stable graphs for (g, n) = ({g}, {n_legs}): 2g - 2 + n <= 0")
    if g == 0:
        raise UnsupportedGenus(f"genus 0 is not supported by the enumeration (n = {n_legs})")
    if 2 * g - 2 + n_legs > MAX_ENUMERATION_VERTICES:
        raise UnsupportedGenus(
            f"stable graphs of (g, n) = ({g}, {n_legs}) have up to {2 * g - 2 + n_legs} "
            f"vertices, above the enumeration cap {MAX_ENUMERATION_VERTICES}"
        )
    choices = sorted(set(int(l) for l in stabilizer_choices))
    if not choices or choices[0] < 1:
        raise GraphError("stabilizer choices must be a non-empty set of positive integers")
    out: dict[str, DualGraph] = {}
    new, setattr_ = object.__new__, object.__setattr__
    for shape in _enumerate_shapes(g, n_legs):
        plan = _LabelPlan(shape)
        vertices = shape.vertices
        edges = _edge_table(len(vertices), shape.edges, choices)
        assigns = _stabilizer_assignments(plan, choices)
        label_of = plan.label
        if len(assigns) > 1:
            table = _LayoutTable(plan, choices)
            # The first decoration has equal stabilizers, so it checks the
            # layouts' pairs only; the second also checks their classes.
            for assign in assigns[:2]:
                expected = plan.label(assign)
                if table.label(assign) != expected:
                    raise GraphError(f"layout table misses the label {expected}")
            label_of = table.label
        for assign in assigns:
            label = label_of(assign)
            if label in out:
                raise GraphError(f"isomorphism class {label} generated twice")
            # The shape and the edge table have passed every check.
            G = new(DualGraph)
            setattr_(G, "vertices", vertices)
            setattr_(G, "edges", tuple(map(getitem, edges, assign)))
            out[label] = G
    return [out[k] for k in sorted(out)]
