"""Slow independent oracles that the test suite checks the library against.

No library module imports this one (tests/test_package.py checks it):
each routine answers a question that the library answers by another
route, by brute force or by a different algorithm.

On an all-rational graph a discrete root class is pinned down by its
branch multiplicities together with a gluing residue in Z/r per edge,
taken modulo coboundaries (rescaling the components).  Classes are stored
in spanning-tree normal form: the gluing residue vanishes on the BFS tree
of spanning_tree, so class equality is plain data equality, and the
residues on the remaining b1 edges are coordinates in (Z/r)^{b1}.  The
library has no spanning-tree code: orbits reads its coordinates off a
Smith reduction of the coboundary matrix, so the tests' orbit sweeps and
Burnside counts check orbits.orbit_count independently.  bridges, a
lowpoint search, checks graphs.classify_node in the same way.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from math import gcd, prod

from . import picard
from .exactalg import CyclicHom, DimensionMismatch
from .graphs import DualGraph
from .orbits import NotRational, OrbitError, _rational_counter, acting_edges
from .picard import DEFAULT_MAX_DOMAIN, DomainTooLarge, LineBundleData

__all__ = [
    "spanning_tree",
    "bridges",
    "StabilizerNotDivisible",
    "RootClass",
    "root_class",
    "ghost_act",
    "involution_act",
    "enumerate_root_classes",
    "burnside_orbit_count",
    "mat_mul",
    "det",
    "image_size_by_enumeration",
]


def spanning_tree(G: DualGraph) -> list[int]:
    """Edge indices of the first-found BFS spanning tree rooted at vertex 0."""
    incident = [[] for _ in range(G.n_vertices)]
    for k, e in enumerate(G.edges):
        incident[e.tail].append((e.head, k))
        incident[e.head].append((e.tail, k))
    seen = {0}
    tree: list[int] = []
    queue = [0]
    while queue:
        v = queue.pop(0)
        for w, k in incident[v]:
            if w not in seen:
                seen.add(w)
                tree.append(k)
                queue.append(w)
    return tree


def bridges(G: DualGraph) -> list[int]:
    """Edge indices of all bridges, found by lowpoint search.

    Independent of classify_node; the two must agree on which edges
    separate.
    """
    n = G.n_vertices
    adjacency = [[] for _ in range(n)]
    for k, e in enumerate(G.edges):
        if e.tail == e.head:
            continue
        adjacency[e.tail].append((e.head, k))
        adjacency[e.head].append((e.tail, k))
    order = [-1] * n
    low = [0] * n
    out: list[int] = []
    counter = itertools.count()
    # Iterative DFS; the parent edge *instance* is skipped, so parallel
    # edges correctly protect each other from being bridges.
    for root in range(n):
        if order[root] != -1:
            continue
        stack = [(root, -1, iter(adjacency[root]))]
        order[root] = low[root] = next(counter)
        while stack:
            v, via, it = stack[-1]
            advanced = False
            for w, k in it:
                if k == via:
                    continue
                if order[w] == -1:
                    order[w] = low[w] = next(counter)
                    stack.append((w, k, iter(adjacency[w])))
                    advanced = True
                    break
                low[v] = min(low[v], order[w])
            if not advanced:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > order[parent]:
                        out.append(via)
    return sorted(out)


class StabilizerNotDivisible(OrbitError):
    pass


@dataclass(frozen=True)
class RootClass:
    """Root datum on an all-rational graph: multiplicities plus gluing.

    The gluing tuple is kept in spanning-tree normal form.
    """

    graph: DualGraph
    r: int
    mult: tuple[int, ...]
    gluing: tuple[int, ...]

    def __post_init__(self):
        if any(v.genus for v in self.graph.vertices):
            raise NotRational("root classes require an all-rational graph")
        if len(self.mult) != self.graph.n_edges or len(self.gluing) != self.graph.n_edges:
            raise OrbitError("per-edge data length mismatch")


def _normalize_gluing(G: DualGraph, r: int, beta) -> tuple[int, ...]:
    """Add the unique coboundary, zero at vertex 0, that kills beta on the
    spanning tree: beta_k + alpha_head - alpha_tail = 0 on every tree edge.
    The tree lists its edges in BFS order, so each one meets exactly one
    vertex whose alpha is already known."""
    alpha = [None] * G.n_vertices
    alpha[0] = 0
    for k in spanning_tree(G):
        e = G.edges[k]
        if alpha[e.tail] is None:
            alpha[e.tail] = (alpha[e.head] + beta[k]) % r
        else:
            alpha[e.head] = (alpha[e.tail] - beta[k]) % r
    return tuple((b + alpha[e.head] - alpha[e.tail]) % r for b, e in zip(beta, G.edges))


def _free_edges(G: DualGraph) -> list[int]:
    """The b1 edges off the spanning tree, in edge order."""
    tree = set(spanning_tree(G))
    return [k for k in range(G.n_edges) if k not in tree]


def root_class(G: DualGraph, r: int, mult, gluing) -> RootClass:
    return RootClass(G, r, tuple(mult), _normalize_gluing(G, r, gluing))


def ghost_act(c: RootClass, e: int) -> RootClass:
    """Apply the ghost generator at edge e: twist the gluing by the branch
    character, embedded in Z/r."""
    l = c.graph.edges[e].stabilizer
    if c.r % l:
        raise StabilizerNotDivisible(
            f"edge {e}: stabilizer {l} does not divide {c.r}"
        )
    beta = list(c.gluing)
    beta[e] = (beta[e] + (c.r // l) * c.mult[e]) % c.r
    return RootClass(c.graph, c.r, c.mult, _normalize_gluing(c.graph, c.r, beta))


def involution_act(c: RootClass) -> RootClass:
    """The genus-1 coarse involution on classes: negate all discrete data."""
    G, r = c.graph, c.r
    mult = tuple((-m) % e.stabilizer for m, e in zip(c.mult, G.edges))
    beta = [(-b) % r for b in c.gluing]
    return RootClass(G, r, mult, _normalize_gluing(G, r, beta))


def enumerate_root_classes(
    G: DualGraph,
    F: LineBundleData,
    r: int,
    max_domain: int = DEFAULT_MAX_DOMAIN,
) -> list[RootClass]:
    """All r-th root classes of F on an all-rational graph.

    One class per accepted multiplicity vector and per gluing residue on
    the non-tree edges; their number is exactly count_roots(G, F, r).  The
    roots and the classes must fit max_domain; both caps are checked on
    counts before anything is listed, the roots first.
    """
    counter = _rational_counter(G, r)
    classes = counter.count(F)
    if counter.smith.kernel_size <= max_domain < classes:
        raise DomainTooLarge(
            f"{picard._decimal(classes)} root classes exceed the cap {max_domain}"
        )
    mults = counter.solutions(F, max_domain)
    if not mults:
        return []
    free = _free_edges(G)
    gluings = []
    for x in itertools.product(range(r), repeat=len(free)):
        beta = [0] * G.n_edges
        for k, b in zip(free, x):
            beta[k] = b
        gluings.append(tuple(beta))
    return [RootClass(G, r, mult, beta) for mult in mults for beta in gluings]


def burnside_orbit_count(
    G: DualGraph,
    F: LineBundleData,
    r: int,
    with_involution: bool = False,
    *,
    nontrivial: bool = False,
) -> int:
    """Orbits of the ghost group (plus, optionally, the involution) on the
    r-th root classes of F, by Burnside's lemma; with nontrivial, the
    orbit of the trivial class (multiplicities 0, gluing 0), which every
    element fixes, is left out when that class is a root of F.

    Fixed classes are counted per group element and multiplicity vector
    m, in this module's normal form, without building a class.  A ghost
    element translates the classes of m by a shift s, its powers of the
    twists of m summed, so it fixes all r^{b1} of them when s is 0.
    Composed with the involution it fixes a class x of a self-paired m
    when 2x = -s, which has gcd(2, r)^{b1} solutions when every entry of
    s is a multiple of gcd(2, r), and none otherwise.  About sum_k l_k
    times |H_m| steps per vector: it scales with the classes.
    """
    mults = _rational_counter(G, r).solutions(F)
    accepted = set(mults)
    acting = acting_edges(G, r)
    stabs = [e.stabilizer for e in G.edges]
    free = _free_edges(G)
    b1 = len(free)
    zero = (0,) * b1
    halves = gcd(2, r)
    order = prod(stabs[k] for k in acting) * (2 if with_involution else 1)
    fixed = 0
    for m in mults:
        # Number of ghost elements shifting the classes of m by each s.
        shifts = {zero: 1}
        for k in acting:
            twist = [0] * G.n_edges
            twist[k] = (r // stabs[k]) * m[k]
            normal = _normalize_gluing(G, r, twist)
            t = tuple(normal[j] for j in free)
            grown = defaultdict(int)
            for s, n in shifts.items():
                for _ in range(stabs[k]):
                    grown[s] += n
                    s = tuple((a + b) % r for a, b in zip(s, t))
            shifts = grown
        fixed += shifts.get(zero, 0) * r**b1
        if not with_involution:
            continue
        pair = tuple((-a) % l for a, l in zip(m, stabs))
        if pair not in accepted:
            raise OrbitError(
                f"the involution sends multiplicities {list(m)} to {list(pair)},"
                " which carry no root class"
            )
        if pair == m:
            fixed += sum(
                n * halves**b1 for s, n in shifts.items() if all(a % halves == 0 for a in s)
            )
    if fixed % order:
        raise OrbitError(
            f"Burnside sum {fixed} is not a multiple of the group order {order}"
        )
    return fixed // order - (nontrivial and (0,) * G.n_edges in accepted)


def mat_mul(A, B) -> list[list[int]]:
    if A and B and len(A[0]) != len(B):
        raise DimensionMismatch(f"{len(A[0])} columns times {len(B)} rows")
    inner = len(B)
    cols = len(B[0]) if B else 0
    return [
        [sum(row[k] * B[k][j] for k in range(inner)) for j in range(cols)]
        for row in A
    ]


def det(A) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise DimensionMismatch("determinant of a non-square matrix")
    if n == 0:
        return 1
    M = [list(row) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def image_size_by_enumeration(h: CyclicHom) -> int:
    seen = set()
    for x in itertools.product(*(range(n) for n in h.domain_moduli)):
        seen.add(h.apply(x))
    return len(seen)
