"""Discrete Picard data on a twisted dual graph.

A line bundle class is tracked by an integer part per vertex and a
head-branch multiplicity per edge; the tail branch carries the inverse
character, i.e. multiplicity (l - mu) mod l.  That pair is the only
form of a class.  The degree of v is its integer part plus mu/l at each
head and ((l - mu) mod l)/l at each tail; vertex_degree sums exactly
that, as rationals, and everything else works on integers.  Tensor
products, powers and roots go through one normaliser, which carries
each branch's numerator, less the new multiplicity, into the integer
part of its vertex.  The edge criterion reads the integers d_v (the
integer part plus one at the tail of each edge with mu != 0; they sum
to the total degree) and each separating edge's multiplicity.  Root
counting happens through the boundary map

    prod_e Z/h_e  --->  (Z/r)^V,     h_e = gcd(l_e, r),

which sends the basis element at e to (r/h_e) ([head] - [tail]).  The
continuous part of the Picard group (component Jacobians and the gluing
torus) only ever contributes the factor r^(2*sum g_v + b_1) to r-torsion
and root counts, so the finite data above decides everything else.  One
RootCounter per (graph, r), kept in a bounded cache, holds one Smith
reduction of that map and answers all of it: its kernel gives the
torsion count, its image decides whether roots exist and whether a
target lifts, and its witness builds one root.  Counts never sweep the
domain, so only listing roots is capped: a target is the class's integer
parts plus, edge by edge, the carries of the base solution of
r*mu = m (mod l), memoized per (l, r) and shared by every graph.  The
roots themselves are the torsor of the paper made literal, the coset of
ker M through the witness.  They are listed by one iterative walk of
that coset in lexicographic order, over a triangular basis of its
lattice built once per counter: each root's multiplicities and integer
parts are read off per-edge tables along the way.
"""

from __future__ import annotations

import itertools
import os
import random
import signal
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, prod

from .exactalg import CyclicHom, smith_invariants, smith_normal_form, solve_congruence
from .graphs import DualGraph, Edge, betti, classify_node, flip_edge, genus

__all__ = [
    "PicardError",
    "DomainTooLarge",
    "HypothesisViolated",
    "AugmentationNonzero",
    "NotCoprime",
    "GraphMismatch",
    "RootMismatch",
    "LineBundleData",
    "line_bundle",
    "trivial_bundle",
    "omega_bundle",
    "vertex_degree",
    "total_degree",
    "tensor",
    "power",
    "rth_power",
    "flip_bundle_edge",
    "random_bundle",
    "delta_embed",
    "torsion_count",
    "RootCounter",
    "count_roots",
    "count_roots_by_fractions",
    "enumerate_discrete_roots",
    "construct_root",
    "root_count_criterion",
    "delta_image_member",
    "delta_image_lift",
    "split_coprime",
    "combine_coprime",
    "check_rootsnum_graph",
    "checked_orders",
    "verify_rootsnum",
    "DEFAULT_MAX_DOMAIN",
    "GRAPH_CACHE_SIZE",
]

DEFAULT_MAX_DOMAIN = 10**6
# Bound on each of the per-graph caches (_node_types, _edge_sides and
# _counter), on the per-shape _shape_node_types and on the per-(l, r)
# edge memos of _edge_memo.  A family sweep visits every graph once, so
# the caches only need to hold the graphs in flight; unbounded, they grew
# to about 100 MB on the decorated genus-3 family.
GRAPH_CACHE_SIZE = 128


class PicardError(ValueError):
    pass


class DomainTooLarge(PicardError):
    pass


class HypothesisViolated(PicardError):
    pass


class AugmentationNonzero(PicardError):
    pass


class NotCoprime(PicardError):
    pass


class GraphMismatch(PicardError):
    pass


class RootMismatch(PicardError):
    pass


def _decimal(n: int) -> str:
    """n in decimal for a message, or the bound "at least 2^k" when n has
    more digits than the interpreter converts to a string."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _node_types(G: DualGraph):
    return _shape_node_types(G.vertices, tuple([(e.tail, e.head) for e in G.edges]))


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _shape_node_types(vertices, ends):
    """The node types of the graph with these vertices and (tail, head)
    edge ends.  They do not read the stabilizers, so every decoration of a
    shape shares one classification."""
    shape = DualGraph(vertices, tuple([Edge(tail, head) for tail, head in ends]))
    return tuple(classify_node(shape, k) for k in range(len(ends)))


@dataclass(frozen=True)
class LineBundleData:
    """Discrete line-bundle class: integer parts and branch multiplicities."""

    graph: DualGraph
    int_part: tuple[int, ...]
    mult: tuple[int, ...]

    def __post_init__(self):
        G = self.graph
        if len(self.int_part) != G.n_vertices:
            raise GraphMismatch("int_part length does not match the vertex count")
        if len(self.mult) != G.n_edges:
            raise GraphMismatch("mult length does not match the edge count")
        for k, (m, e) in enumerate(zip(self.mult, G.edges)):
            if not 0 <= m < e.stabilizer:
                raise PicardError(
                    f"edge {k}: multiplicity {m} not in [0, {e.stabilizer})"
                )

    def tail_mult(self, e: int) -> int:
        l = self.graph.edges[e].stabilizer
        return (l - self.mult[e]) % l


def line_bundle(G: DualGraph, int_part, mult) -> LineBundleData:
    return LineBundleData(G, tuple(int(a) for a in int_part), tuple(int(m) for m in mult))


def _tail_mults(L: LineBundleData) -> tuple[int, ...]:
    return tuple((e.stabilizer - m) % e.stabilizer for m, e in zip(L.mult, L.graph.edges))


def vertex_degree(L: LineBundleData, v: int) -> Fraction:
    """Exact degree of the class on the component v: the integer part plus
    the branch fraction mu/l of every branch at v."""
    G = L.graph
    if not 0 <= v < G.n_vertices:
        raise GraphMismatch(f"no vertex {v}")
    degree = Fraction(L.int_part[v])
    for e, is_head in G.incidences(v):
        degree += Fraction(L.mult[e] if is_head else L.tail_mult(e), G.edges[e].stabilizer)
    return degree


def _integer_degrees(G: DualGraph, int_part, mult) -> list[int]:
    """d_v: int_part[v] plus one at the tail of each edge with mu != 0.

    A branch pair with mu != 0 gives mu/l at the head and 1 - mu/l at the
    tail, so deg_v = d_v + sum_e (mu_e/l_e)([head_e = v] - [tail_e = v]).
    Hence sum(d) is the total degree, and for a separating edge k, whose
    "+" side P holds its head, l_k * deg(P) = l_k * sum_P d_v + mu_k.
    """
    d = list(int_part)
    for e, m in zip(G.edges, mult):
        if m:
            d[e.tail] += 1
    return d


def total_degree(L: LineBundleData) -> int:
    """Sum of the vertex degrees, an integer: opposite branches carry
    inverse characters, so each edge adds mu/l + ((l-mu) mod l)/l, which
    is 1 for mu != 0 and 0 otherwise."""
    return sum(_integer_degrees(L.graph, L.int_part, L.mult))


def omega_bundle(G: DualGraph, k: int = 1, h=None) -> LineBundleData:
    """k-th power of the dualizing class, twisted down by marking weights.

    The dualizing class is pulled back from the coarse curve, so every
    multiplicity vanishes and the degree on vertex v is
    k*(2 g_v - 2 + valence) minus the weights of the legs at v.
    """
    weights = dict(h) if h else {}
    unknown = set(weights) - {leg for v in G.vertices for leg in v.legs}
    if unknown:
        raise GraphMismatch(f"marking weights for unknown legs {sorted(unknown)}")
    int_part = tuple(
        k * (2 * v.genus - 2 + G.valence(i)) - sum(weights.get(leg, 0) for leg in v.legs)
        for i, v in enumerate(G.vertices)
    )
    return LineBundleData(G, int_part, (0,) * G.n_edges)


def trivial_bundle(G: DualGraph) -> LineBundleData:
    return LineBundleData(G, (0,) * G.n_vertices, (0,) * G.n_edges)


def tensor(L1: LineBundleData, L2: LineBundleData) -> LineBundleData:
    """Tensor product: degrees add, multiplicities add mod the stabilizer."""
    if L1.graph != L2.graph:
        raise GraphMismatch("tensor of bundles on different graphs")
    G = L1.graph
    base = [a + b for a, b in zip(L1.int_part, L2.int_part)]
    heads = [a + b for a, b in zip(L1.mult, L2.mult)]
    tails = [a + b for a, b in zip(_tail_mults(L1), _tail_mults(L2))]
    mult = [h % e.stabilizer for h, e in zip(heads, G.edges)]
    return _normalized(G, base, heads, tails, mult)


def power(L: LineBundleData, a: int) -> LineBundleData:
    """a-th tensor power for any integer a; degrees scale by a."""
    G = L.graph
    heads = [a * m for m in L.mult]
    tails = [a * t for t in _tail_mults(L)]
    mult = [h % e.stabilizer for h, e in zip(heads, G.edges)]
    return _normalized(G, [a * x for x in L.int_part], heads, tails, mult)


def rth_power(L: LineBundleData, r: int) -> LineBundleData:
    if r < 1:
        raise PicardError(f"power {r} < 1")
    return power(L, r)


def _carries(l: int, head: int, tail: int, mu: int, divisor: int) -> tuple[int, int]:
    """The integers an edge of stabilizer l carries to its head and its
    tail vertex when its branches hold head/l and tail/l of degree and a
    class of multiplicity mu, taken divisor times, keeps divisor*mu/l and
    divisor*((l - mu) mod l)/l of them.  Both are integers exactly when
    divisor*mu = head = -tail (mod l)."""
    to_head, rem = divmod(head - divisor * mu, l)
    to_tail, rem_tail = divmod(tail - divisor * ((l - mu) % l), l)
    if rem or rem_tail:
        raise PicardError(f"{divisor}*{mu} misses the branches {head}/{l}, {tail}/{l}")
    return to_head, to_tail


def _normalized(G: DualGraph, base, heads, tails, mult, divisor: int = 1) -> LineBundleData:
    """The class with multiplicities mult whose degree on v is 1/divisor of
    base[v] plus heads[e]/l_e at the head and tails[e]/l_e at the tail of
    each edge e: each edge's _carries go to the integer parts of its two
    vertices, which are then divided by divisor."""
    int_part = list(base)
    for e, head, tail, mu in zip(G.edges, heads, tails, mult):
        to_head, to_tail = _carries(e.stabilizer, head, tail, mu, divisor)
        int_part[e.head] += to_head
        int_part[e.tail] += to_tail
    if divisor != 1:
        for v, a in enumerate(int_part):
            q, rem = divmod(a, divisor)
            if rem:
                raise PicardError(f"vertex {v}: {a} is not a multiple of {divisor}")
            int_part[v] = q
    return LineBundleData(G, tuple(int_part), tuple(mult))


def flip_bundle_edge(L: LineBundleData, e: int) -> LineBundleData:
    """Flip edge e of the underlying graph, inverting the stored branch."""
    G = flip_edge(L.graph, e)
    mult = list(L.mult)
    mult[e] = L.tail_mult(e)
    return LineBundleData(G, L.int_part, tuple(mult))


def random_bundle(G: DualGraph, rng: random.Random, r: int | None = None) -> LineBundleData:
    """Random discrete class; with r given, the total degree is padded to a
    multiple of r on vertex 0."""
    L = LineBundleData(G, *_draw(rng, G.stabilizers(), G.n_vertices))
    return L if r is None else _pad_degree(L, r)


def _draw(rng: random.Random, stabs, n_vertices: int):
    """(int_part, mult) of a random class: each multiplicity uniform in
    [0, l), edge by edge, then each integer part uniform in [-3, 3].

    Each number comes from the rejection loop on getrandbits(n.bit_length())
    that random.Random.randrange(n) runs, so a seeded generator gives the
    same numbers and is left in the same state.
    """
    getrandbits = rng.getrandbits
    mult = []
    for l in stabs:
        k = l.bit_length()
        x = getrandbits(k)
        while x >= l:
            x = getrandbits(k)
        mult.append(x)
    int_part = []
    for _ in range(n_vertices):
        x = getrandbits(3)
        while x >= 7:
            x = getrandbits(3)
        int_part.append(x - 3)
    return tuple(int_part), tuple(mult)


# ---------------------------------------------------------------------------
# Boundary map and torsion


def delta_embed(G: DualGraph, r: int) -> CyclicHom:
    """The boundary map prod_e Z/h_e -> (Z/r)^V, h_e = gcd(l_e, r).

    Edge e contributes (r/h_e) at its head and -(r/h_e) at its tail, so a
    loop gives a zero column.
    """
    if r < 1:
        raise PicardError(f"order {r} < 1")
    hs = tuple([gcd(e.stabilizer, r) for e in G.edges])
    matrix = tuple(map(tuple, _boundary_matrix(G, hs, r)))
    return CyclicHom(matrix, hs, (r,) * G.n_vertices)


def _boundary_matrix(G: DualGraph, hs, r: int) -> list[list[int]]:
    matrix = [[0] * G.n_edges for _ in range(G.n_vertices)]
    for k, (e, h) in enumerate(zip(G.edges, hs)):
        w = r // h
        matrix[e.head][k] += w
        matrix[e.tail][k] -= w
    return matrix


def torsion_count(G: DualGraph, r: int) -> int:
    """Number of r-torsion line-bundle classes on the twisted curve: the
    free factor times |ker M| from the cached Smith reduction."""
    counter = _counter(G, r)
    return counter.free_factor * counter.smith.kernel_size


# ---------------------------------------------------------------------------
# Root counting


def _edge_entry(l: int, r: int, m: int):
    """(mu0, head carry, tail carry) for an edge with stabilizer l carrying
    multiplicity m, or () when r*mu = m (mod l) has no solution.

    mu0 is the base solution.  A root with multiplicity mu0 on the edge
    leaves the defect r*(deg(F)/r - deg(root)) of its head and its tail
    changed by the _carries of the branches m/l and ((l-m) mod l)/l of F
    to a class of multiplicity mu0, times r.
    """
    sol = solve_congruence(r, m, l)
    if sol is None:
        return ()
    mu0 = sol[0]
    return (mu0,) + _carries(l, m, (l - m) % l, mu0, r)


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _edge_memo(l: int, r: int) -> dict:
    """The _edge_entry of each multiplicity m on an edge of stabilizer l,
    shared by every counter of order r and filled on first use of m, so a
    huge stabilizer costs nothing until its multiplicities are met."""
    return {}


class RootCounter:
    """Root counting on a fixed graph for a fixed r.

    The per-edge solution sets of r*mu = m (mod l) are parameterised by
    x in prod_e Z/h_e, and a candidate is a root exactly when the vertex
    degree defect M x - t vanishes mod r, where M is the boundary map of
    delta_embed.  The solutions are empty or a coset of ker M, so the
    Smith reduction D = U M V of the integer V x E matrix, built on first
    use as smith, answers every target.  With m_i = gcd(d_i, r) (d_i = 0
    past the rank), t is hit exactly when (U t)_i = 0 (mod m_i), and
    |ker M| = prod h_e * prod m_i / r^V.  solutions and
    enumerate_discrete_roots list the coset through a witness by one
    walk (_walk) over a triangular basis of ker M + (+)_e h_e Z (_basis),
    so their cost scales with the number of roots, not with the domain.
    The target t is the bundle's integer part plus, edge by edge, the
    integer deltas of the edge's base solution (_edge_entry), read from a
    memo shared by every counter of order r, so counts and lifts work on
    (int_part, mult) as plain integers, with no degree and no bundle.  One
    counter serves every bundle on (G, r): _counter keeps the recent ones
    for torsion, counts, root lists, constructed roots and lifts, and
    check_rootsnum_graph builds one per r for its integer rows.  ker M is
    a subgroup of the domain, so domain_size bounds |ker M|: where
    free_factor * domain_size < r^(2g) the sweep knows the kernel is not
    maximal without building smith.  Where the bound leaves it open and
    the order's rows need no smith, the sweep reads kernel_size, which
    needs only the Smith invariants of M without its last row: every
    column of M sums to 0, so dropping that row drops one invariant 0 and
    nothing else, and no transform is built.
    """

    def __init__(self, G: DualGraph, r: int):
        if r < 1:
            raise PicardError(f"order {r} < 1")
        self.graph = G
        self.r = r
        self.hs = [gcd(e.stabilizer, r) for e in G.edges]
        self.domain_size = prod(self.hs)
        self.free_factor = r ** (2 * sum(v.genus for v in G.vertices) + betti(G))
        # Per edge: (head, tail, stabilizer, memo of _edge_entry).
        self._edges = tuple(
            (e.head, e.tail, e.stabilizer, _edge_memo(e.stabilizer, r)) for e in G.edges
        )

    @cached_property
    def smith(self) -> _SmithData:
        """The Smith reduction of the boundary map, built on first use."""
        return _SmithData(_boundary_matrix(self.graph, self.hs, self.r), self.hs, self.r)

    @cached_property
    def kernel_size(self) -> int:
        """|ker M|: smith.kernel_size once smith is built, otherwise read
        off the Smith invariants of M alone, with no transform.

        Every column of M sums to 0, so adding all rows to the last one
        (a unimodular P) gives P M = [M'; 0], where M' is M without its
        last row.  The invariants of M are those of M' and one more 0,
        whose gcd with r cancels one factor r, so |ker M| = prod h_e *
        prod_{i<V-1} gcd(d'_i, r) / r^(V-1), d'_i = 0 past the rank of M'.
        Loops give zero columns and stay out of the reduction.
        """
        if "smith" in self.__dict__:
            return self.smith.kernel_size
        matrix = _boundary_matrix(self.graph, self.hs, self.r)
        cols = [k for k in range(len(self.hs)) if any([row[k] for row in matrix])]
        diag = smith_invariants([[row[k] for k in cols] for row in matrix[:-1]])
        mods = [gcd(d, self.r) for d in diag] + [self.r] * (len(matrix) - 1 - len(diag))
        return _kernel_size(self.hs, mods, self.r)

    def _targets(self, int_part, mult):
        """Defect list t with acceptance condition M x = t (mod r) for the
        base solutions of the class (int_part, mult), or None when some
        edge has no base solution.  t_v is int_part[v] plus the deltas of
        the edges at v, unreduced; the list is new, so callers may change
        it in place."""
        t = list(int_part)
        r = self.r
        for (head, tail, l, memo), m in zip(self._edges, mult):
            entry = memo.get(m)
            if entry is None:
                entry = memo[m] = _edge_entry(l, r, m)
            if not entry:
                return None
            _, dh, dt = entry
            t[head] += dh
            t[tail] += dt
        return t

    def solution_count(self, t) -> int:
        """Number of x in prod Z/h_e with M x = t (mod r)."""
        smith = self.smith
        return smith.kernel_size if smith.contains(t) else 0

    # -- public counts ----------------------------------------------------

    def count(self, F: LineBundleData) -> int:
        if F.graph != self.graph:
            raise GraphMismatch("bundle lives on a different graph")
        t = self._targets(F.int_part, F.mult)
        return 0 if t is None else self.free_factor * self.solution_count(t)

    def _lift(self, F: LineBundleData):
        """(mu0, x) with x one solution of M x = t for F, or None."""
        if F.graph != self.graph:
            raise GraphMismatch("bundle lives on a different graph")
        t = self._targets(F.int_part, F.mult)
        if t is None or not self.smith.contains(t):
            return None
        mu0 = [memo[m][0] for (_, _, _, memo), m in zip(self._edges, F.mult)]
        return mu0, self.smith.witness(t)

    def _mult(self, mu0, x) -> tuple[int, ...]:
        return tuple(
            (mu0[k] + (e.stabilizer // self.hs[k]) * x[k]) % e.stabilizer
            for k, e in enumerate(self.graph.edges)
        )

    @cached_property
    def _basis(self) -> tuple:
        """A triangular basis of the lattice L = ker M + (+)_e h_e Z in Z^E,
        built on first use: per edge k, its pivot p_k and the entries
        (j, b_k[j]), j > k, of its vector b_k, which is 0 before k.

        The reduced columns come from the Smith kernel generators (column i
        of V scaled by r/m_i) and the vectors h_k e_k, turned triangular by
        Euclid one coordinate at a time, with entries reduced mod h_j; so
        each pivot is a positive divisor of its h_k, which is checked.  A
        zero column is free in L, so its vector is e_k with pivot 1.  The
        coset x0 + L then meets prod [0, h_e) in prod h_k/p_k points, which
        must be |ker M|.
        """
        smith, hs, r = self.smith, self.hs, self.r
        cols = smith.cols
        n = len(cols)
        mods = smith.mods
        hcols = [hs[k] for k in cols]
        pool = [
            [(r // mods[i] if i < len(mods) else 1) * row[i] % h for row, h in zip(smith.V, hcols)]
            for i in range(n)
        ]
        basis = [(1, ())] * len(hs)
        for j, k in enumerate(cols):
            pivot = [0] * n
            pivot[j] = hcols[j]
            rest = []
            for g in pool:
                while g[j]:
                    q = pivot[j] // g[j]
                    pivot, g = g, [a - q * b for a, b in zip(pivot, g)]
                if any(g):
                    rest.append([a % h for a, h in zip(g, hcols)])
            pool = rest
            basis[k] = (
                pivot[j],
                tuple(
                    (cols[i], pivot[i] % hcols[i])
                    for i in range(j + 1, n)
                    if pivot[i] % hcols[i]
                ),
            )
        for k, (h, (p, _)) in enumerate(zip(hs, basis)):
            if p < 1 or h % p:
                raise PicardError(f"edge {k}: pivot {p} is not a positive divisor of {h}")
        size = prod(h // p for h, (p, _) in zip(hs, basis))
        if size != smith.kernel_size:
            raise PicardError(
                f"the root basis spans {_decimal(size)} points, the Smith count "
                f"{_decimal(smith.kernel_size)}"
            )
        return tuple(basis)

    def _walk(self, F: LineBundleData, max_domain: int):
        """(mult, int_part) of every discrete r-th root of F, in lexicographic
        order of its x in prod [0, h_e); DomainTooLarge when there are more
        than max_domain of them.

        The roots are the points of the coset x0 + L in the box, x0 the
        Smith witness.  An odometer fixes x one edge at a time: at edge k
        the values left are those = w_k (mod p_k) in [0, h_k), where w is
        x0 plus the basis multiples chosen so far, and moving x_k up by p_k
        adds b_k to w.  Each value's (mu, head carry, tail carry) comes from
        a per-call table filled on first use through _carries, the integer
        parts accumulate along the way, and at each root they are divided
        by r, a remainder raising PicardError as in _normalized.
        """
        if max_domain < 0:
            raise PicardError(f"the cap {max_domain} on discrete roots is negative")
        lift = self._lift(F)
        if lift is None:
            return []
        size = self.smith.kernel_size
        if size > max_domain:
            raise DomainTooLarge(f"{_decimal(size)} discrete roots exceed the cap {max_domain}")
        mu0, x0 = lift
        r, hs = self.r, self.hs
        levels = [
            (head, tail, h, p, later, {}, l, mu, m)
            for (head, tail, l, _), h, (p, later), mu, m in zip(
                self._edges, hs, self._basis, mu0, F.mult
            )
        ]
        n = len(levels)
        xs = [0] * n
        mus = [0] * n
        ws = [list(x0)] + [None] * n
        accs = [list(F.int_part)] + [None] * n
        roots = []
        k = 0
        while True:
            if k < n:
                # Enter edge k at its least value.
                head, tail, h, p, later, table, l, mu, m = levels[k]
                w = ws[k]
                q, c = divmod(w[k], p)
                if q and later:
                    w = w[:]
                    for j, b in later:
                        w[j] = (w[j] - q * b) % hs[j]
            else:
                acc = accs[n]
                if any([a % r for a in acc]):
                    v = next(v for v, a in enumerate(acc) if a % r)
                    raise PicardError(f"vertex {v}: {acc[v]} is not a multiple of {r}")
                roots.append((tuple(mus), tuple([a // r for a in acc])))
                # Move up to the deepest edge with a value left.
                k -= 1
                while k >= 0:
                    head, tail, h, p, later, table, l, mu, m = levels[k]
                    c = xs[k] + p
                    if c < h:
                        break
                    k -= 1
                else:
                    break
                w = ws[k + 1]
                if later:
                    w = w[:]
                    for j, b in later:
                        w[j] = (w[j] + b) % hs[j]
            xs[k] = c
            ws[k + 1] = w
            entry = table.get(c)
            if entry is None:
                mu_c = (mu + l // h * c) % l
                entry = table[c] = (mu_c, *_carries(l, m, (l - m) % l, mu_c, r))
            mus[k], to_head, to_tail = entry
            acc = accs[k][:]
            acc[head] += to_head
            acc[tail] += to_tail
            accs[k + 1] = acc
            k += 1
        return roots

    def solutions(self, F: LineBundleData, max_domain: int = DEFAULT_MAX_DOMAIN):
        """All accepted multiplicity vectors, each yielding one discrete root,
        in lexicographic order of x in prod Z/h_e, read off _walk;
        DomainTooLarge when there are more than max_domain of them,
        PicardError when max_domain is negative."""
        return [mult for mult, _ in self._walk(F, max_domain)]


class _SmithData:
    """One Smith reduction D = U M V of the boundary map M: prod Z/h_e ->
    (Z/r)^V.

    Only the nonzero columns of M, listed in cols, are reduced, so V is
    square in their number: a loop's column is zero, and a graph with many
    loops costs no square of its edge count.  The coordinate of a zero
    column is 0 in every witness and a free generator of the kernel.
    checks holds (row of U mod m_i, m_i) for every m_i > 1: t is in the
    image exactly when each row annihilates it.  kernel_size is |ker M| on
    prod Z/h_e.  The matrix M is kept so that every witness is checked
    against it.
    """

    __slots__ = ("matrix", "hs", "r", "cols", "U", "V", "diag", "mods", "checks", "kernel_size")

    def __init__(self, matrix, hs, r: int):
        self.matrix, self.hs, self.r = matrix, hs, r
        nv = len(matrix)
        self.cols = cols = [k for k in range(len(hs)) if any(row[k] for row in matrix)]
        U, D, V = smith_normal_form([[row[k] for k in cols] for row in matrix])
        self.U, self.V = U, V
        self.diag = tuple(D[i][i] if i < len(cols) else 0 for i in range(nv))
        self.mods = tuple(gcd(d, r) for d in self.diag)
        self.checks = tuple(
            (tuple(u % m for u in U[i]), m) for i, m in enumerate(self.mods) if m > 1
        )
        self.kernel_size = _kernel_size(hs, self.mods, r)

    def contains(self, t) -> bool:
        """Whether t lies in the image of M."""
        for row, m in self.checks:
            if sum([a * b for a, b in zip(row, t)]) % m:
                return False
        return True

    def witness(self, t) -> tuple[int, ...]:
        """One x in prod Z/h_e with M x = t (mod r), for t in the image:
        solve d_i z_i = (U t)_i (mod r) and take x = V z mod h_e on the
        reduced columns, 0 on the zero ones."""
        r, hs = self.r, self.hs
        z = []
        for row, d in zip(self.U, self.diag):
            sol = solve_congruence(d, sum(a * b for a, b in zip(row, t)), r)
            if sol is None:
                raise PicardError("target outside the image of the boundary map")
            z.append(sol[0])
        x = [0] * len(hs)
        for k, row in zip(self.cols, self.V):
            x[k] = sum(a * b for a, b in zip(row, z)) % hs[k]
        for row, tv in zip(self.matrix, t):
            if (sum(a * b for a, b in zip(row, x)) - tv) % r:
                raise PicardError("the Smith witness does not map to the target")
        return tuple(x)


def _kernel_size(hs, mods, r: int) -> int:
    """|ker M| on prod Z/h_e for a map M to (Z/r)^n, n = len(mods), with
    mods[i] = gcd(d_i, r) over its Smith invariants d_i (d_i = 0 past the
    rank, so mods[i] = r there): the image has index prod(mods) in
    (Z/r)^n, so the kernel has prod h_e * prod(mods) / r^n elements."""
    return prod(hs) * prod(mods) // r ** len(mods)


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _counter(G: DualGraph, r: int) -> RootCounter:
    return RootCounter(G, r)


def count_roots(G: DualGraph, F: LineBundleData, r: int) -> int:
    """Number of r-th roots of F; either 0 or the full torsion count."""
    return _counter(G, r).count(F)


def count_roots_by_fractions(
    G: DualGraph, F: LineBundleData, r: int, max_domain: int = 10**4
) -> int:
    """Independent slow path: sweep candidate multiplicities and test the
    vertex degree conditions with exact rationals, no modular reduction."""
    if F.graph != G:
        raise GraphMismatch("bundle lives on a different graph")
    base = []
    for m, e in zip(F.mult, G.edges):
        sol = solve_congruence(r, m, e.stabilizer)
        if sol is None:
            return 0
        x0, step = sol
        base.append([x0 + step * i for i in range(e.stabilizer // step)])
    if prod(len(c) for c in base) > max_domain:
        raise DomainTooLarge("fraction sweep beyond its cap")
    degrees = [vertex_degree(F, v) for v in range(G.n_vertices)]
    accepted = 0
    for mult in itertools.product(*base):
        ok = True
        for v in range(G.n_vertices):
            frac = Fraction(0)
            for e, is_head in G.incidences(v):
                l = G.edges[e].stabilizer
                m = mult[e] % l if is_head else (l - mult[e]) % l
                frac += Fraction(m, l)
            if (Fraction(degrees[v], r) - frac).denominator != 1:
                ok = False
                break
        if ok:
            accepted += 1
    return r ** (2 * sum(v.genus for v in G.vertices) + betti(G)) * accepted


def enumerate_discrete_roots(
    G: DualGraph, F: LineBundleData, r: int, max_domain: int = DEFAULT_MAX_DOMAIN
) -> list[LineBundleData]:
    """All discrete r-th roots of F (multiplicities plus forced degrees), in
    the order of RootCounter.solutions, from one walk of the root coset."""
    roots = _counter(G, r)._walk(F, max_domain)
    return [LineBundleData(G, int_part, mult) for mult, int_part in roots]


def construct_root(G: DualGraph, F: LineBundleData, r: int) -> LineBundleData | None:
    """One discrete r-th root of F, or None when no root exists.

    Found from the Smith witness of the defect equation, so no domain
    sweep is needed.
    """
    counter = _counter(G, r)
    lift = counter._lift(F)
    if lift is None:
        return None
    R = _normalized(G, F.int_part, F.mult, _tail_mults(F), counter._mult(*lift), r)
    if rth_power(R, r) != F:
        raise RootMismatch("constructed class is not an r-th root of the bundle")
    return R


# ---------------------------------------------------------------------------
# Numerical criterion


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _edge_sides(G: DualGraph):
    """The graph part of the edge criterion: the nonseparating edges, and
    (k, l, sorted "+" side) for each separating edge k."""
    nodes = _node_types(G)
    nonseparating = tuple(k for k, n in enumerate(nodes) if not n.separating)
    sides = tuple(
        (k, e.stabilizer, tuple(sorted(n.plus_vertices)))
        for k, (e, n) in enumerate(zip(G.edges, nodes))
        if n.separating
    )
    return nonseparating, sides


class _Criterion:
    """The edge criterion of root_count_criterion for one (graph, r), as a
    test on the integer degrees d of _integer_degrees and the
    multiplicities.

    Nonseparating edges need l and the head multiplicity divisible by r
    (the tail multiplicity l - mu then is too).  For a separating edge k
    the "+" side suffices, l * deg(+) = l * sum_+ d_v + mu_k: with the
    total degree a multiple of r the two side conditions agree.  The edges
    and sides come from the per-graph _edge_sides; only the parts that
    depend on r are built here.
    """

    __slots__ = ("r", "stabilizers_ok", "nonseparating", "sides")

    def __init__(self, G: DualGraph, r: int):
        self.r = r
        self.nonseparating, self.sides = _edge_sides(G)
        edges = G.edges
        self.stabilizers_ok = all(edges[k].stabilizer % r == 0 for k in self.nonseparating)

    def holds(self, d, mult) -> bool:
        if not self.stabilizers_ok:
            return False
        r = self.r
        for k in self.nonseparating:
            if mult[k] % r:
                return False
        for k, l, plus in self.sides:
            if (l * sum([d[v] for v in plus]) + mult[k]) % r:
                return False
        return True


def root_count_criterion(G: DualGraph, F: LineBundleData, r: int):
    """Edge-by-edge test for F to have the maximal number r^(2g) of roots.

    Requires the total degree of F to be a multiple of r.  A nonseparating
    edge must have stabilizer and both branch multiplicities divisible by
    r; a separating edge must have l_e * (side degree) divisible by r on
    both sides.  Returns (passed, witnesses) where each witness names a
    failing edge and the condition it broke, and passed is whether there
    is none.  The "+" side of edge k has degree sum_+ d_v + mu_k/l_k (see
    _integer_degrees) and the "-" side the rest of the total.
    """
    if F.graph != G:
        raise GraphMismatch("bundle lives on a different graph")
    if r < 1:
        raise PicardError(f"order {r} < 1")
    d = _integer_degrees(G, F.int_part, F.mult)
    total = sum(d)
    if total % r:
        raise HypothesisViolated(f"total degree {total} is not a multiple of {r}")
    witnesses = []
    for k, (e, node) in enumerate(zip(G.edges, _node_types(G))):
        l = e.stabilizer
        if not node.separating:
            if l % r:
                witnesses.append((k, "stabilizer", l))
            if F.mult[k] % r:
                witnesses.append((k, "head multiplicity", F.mult[k]))
            if F.tail_mult(k) % r:
                witnesses.append((k, "tail multiplicity", F.tail_mult(k)))
        else:
            plus = sum(d[v] for v in node.plus_vertices) + Fraction(F.mult[k], l)
            for side, degree in (("+", plus), ("-", total - plus)):
                if l * degree % r:
                    witnesses.append((k, f"side {side} degree", degree))
    return not witnesses, witnesses


# ---------------------------------------------------------------------------
# Membership and constructive lifts in the image of the boundary map


def _check_lift_hypotheses(G: DualGraph, r: int, t):
    if r < 1:
        raise PicardError(f"order {r} < 1")
    if len(t) != G.n_vertices:
        raise GraphMismatch("target length does not match the vertex count")
    for k, (e, node) in enumerate(zip(G.edges, _node_types(G))):
        if not node.separating and e.stabilizer % r:
            raise HypothesisViolated(
                f"nonseparating edge {k} has stabilizer {e.stabilizer}, not a multiple of {r}"
            )
    if sum(t) % r:
        raise AugmentationNonzero(f"augmentation {sum(t) % r} != 0 mod {r}")


def delta_image_member(G: DualGraph, r: int, t) -> bool:
    """Whether t in (Z/r)^V lies in the image of the boundary map.

    Assumes every nonseparating stabilizer is divisible by r; then
    membership only constrains the separating edges: the head-side sum of
    t must be a multiple of r/h_e.
    """
    _check_lift_hypotheses(G, r, t)
    for e, node in zip(G.edges, _node_types(G)):
        if not node.separating:
            continue
        h = gcd(e.stabilizer, r)
        plus_sum = sum(t[v] for v in node.plus_vertices) % r
        if plus_sum % (r // h):
            return False
    return True


def delta_image_lift(G: DualGraph, r: int, t) -> tuple[int, ...] | None:
    """A preimage x in prod Z/h_e of t under the boundary map, or None.

    Membership is decided by the edge criterion of delta_image_member and
    cross-checked against the image of the cached Smith reduction; a
    member's preimage is the Smith witness, which checks M x = t itself.
    """
    member = delta_image_member(G, r, t)
    smith = _counter(G, r).smith
    target = tuple(v % r for v in t)
    if smith.contains(target) != member:
        raise PicardError(
            f"edge criterion says member={member} for {target}, the Smith form disagrees"
        )
    return smith.witness(target) if member else None


# ---------------------------------------------------------------------------
# Coprime splitting


def split_coprime(L: LineBundleData, r1: int, r2: int):
    """Split an (r1*r2)-th root into the pair (L^r2, L^r1)."""
    if gcd(r1, r2) != 1:
        raise NotCoprime(f"{r1} and {r2} are not coprime")
    return rth_power(L, r2), rth_power(L, r1)


def combine_coprime(
    L1: LineBundleData, L2: LineBundleData, r1: int, r2: int
) -> LineBundleData:
    """Recombine an r1-th and an r2-th root of a common class.

    With h1*r1 + h2*r2 = 1 the combination is L1^h2 (x) L2^h1, the inverse
    of split_coprime on discrete classes.
    """
    if gcd(r1, r2) != 1:
        raise NotCoprime(f"{r1} and {r2} are not coprime")
    if L1.graph != L2.graph:
        raise GraphMismatch("roots live on different graphs")
    if rth_power(L1, r1) != rth_power(L2, r2):
        raise RootMismatch("the two roots do not power to a common class")
    h1 = pow(r1, -1, r2)
    h2 = (1 - h1 * r1) // r2
    return tensor(power(L1, h2), power(L2, h1))


# ---------------------------------------------------------------------------
# Sweep: criterion versus counted roots


@dataclass(frozen=True)
class RootsnumRecord:
    """A check whose criterion disagrees with its count; expected is r^(2g)."""

    graph: DualGraph
    r: int
    bundle: LineBundleData
    criterion: bool
    count: int
    expected: int


def check_rootsnum_graph(
    G: DualGraph,
    r_values,
    *,
    n_random: int = 50,
    seed: int = 0,
):
    """Criterion-versus-count checks for one graph; see verify_rootsnum.

    Every order is settled before any bundle is touched.  A row's count
    is 0 or free_factor * |ker M|, so unless that product is r^(2g) (the
    kernel is maximal) no row reaches the expected count.  Unless the
    nonseparating stabilizers pass (_Criterion.stabilizers_ok: the order
    is screened) no row passes the criterion.  So an order that is neither
    maximal nor screened has no discrepancy and only adds its 3 + n_random
    checks: when no order is kept, the rows are not built at all.  The
    generator is local to the graph, so skipping it changes nothing else.

    The kernel is a subgroup of the domain prod Z/h_e, so free_factor *
    domain_size < r^(2g) already proves it is not maximal.  Otherwise one
    Smith reduction decides it.  A screened order keeps its rows, which
    test their targets against the image of the boundary map when the
    kernel is maximal, and a screened order's kernel has been maximal on
    every family swept so far: it builds the full reduction, transforms
    included, at once.  Any other order reads counter.kernel_size, which
    needs only the Smith invariants of the boundary matrix without its
    last row: every column sums to 0, so P M = [M'; 0] for a unimodular
    P, and dropping the row drops one invariant 0.  Such an order builds
    the full reduction as well only when its kernel is maximal, and then
    every row that reaches the count is a discrepancy.

    When an order is kept, the random bundles are seeded from (seed,
    graph), so the result does not depend on how a family sweep is
    chunked; they are the classes that random_bundle draws from the same
    generator.  Every bundle is a row (int_part, mult, d, total) of
    integers, with d from _integer_degrees and total = sum(d): the
    dualizing class, its square and the trivial class come from their
    LineBundleData, the random classes straight from the generator.  Per
    kept order the RootCounter reads each row's target off its integer
    parts, only when the kernel is maximal, and the edge criterion tests
    its d, only when screened.
    A row whose total is not a multiple of r is padded by lowering its
    degree on vertex 0: the target's first entry in place, and d_0.

    Before padding, such a row has no root, so its count is not computed.
    Each edge's _carries add dh + dt = [m != 0] - r*[mu0 != 0] to its two
    vertices, so a target sums to sum(d) - r*#{e: mu0_e != 0}, which is
    the total degree mod r.  Every column of the boundary map sums to 0,
    so its image lies in {t: sum(t) = 0 (mod r)} and misses that target.
    A LineBundleData for a random class is built only for a discrepancy's
    record, whose count is then computed in full.  n_random must not be
    negative.
    """
    _check_random_count(n_random)
    g = genus(G)
    kept = []
    checked = 0
    for r in r_values:
        checked += 3 + n_random
        counter = RootCounter(G, r)
        criterion = _Criterion(G, r)
        expected = r ** (2 * g)
        free = counter.free_factor
        screened = criterion.stabilizers_ok
        maximal = (
            free * counter.domain_size >= expected
            and free * (counter.smith if screened else counter).kernel_size == expected
        )
        if maximal or screened:
            kept.append((r, counter, criterion, expected, maximal, screened))
    if not kept:
        return [], checked
    rng = random.Random(f"{seed}:{G!r}")
    fixed = (omega_bundle(G, 1), omega_bundle(G, 2), trivial_bundle(G))
    drawn = [(F.int_part, F.mult) for F in fixed]
    stabs = G.stabilizers()
    drawn += [_draw(rng, stabs, G.n_vertices) for _ in range(n_random)]
    rows = []
    for int_part, mult in drawn:
        d = _integer_degrees(G, int_part, mult)
        rows.append((int_part, mult, d, sum(d)))
    discrepancies: list[RootsnumRecord] = []
    for r, counter, criterion, expected, maximal, screened in kept:
        for int_part, mult, d, total in rows:
            t = counter._targets(int_part, mult) if maximal else None
            excess = total % r
            if excess:
                # Padding lowers int_part[0], so d_0 and t_0 drop with it.
                if t is not None:
                    t[0] -= excess
                if screened:
                    d = [d[0] - excess, *d[1:]]
            reached = t is not None and counter.smith.contains(t)
            passed = screened and criterion.holds(d, mult)
            if passed != reached:
                F = _pad_degree(LineBundleData(G, int_part, mult), r)
                count = counter.count(F)
                discrepancies.append(RootsnumRecord(G, r, F, passed, count, expected))
    return discrepancies, checked


def _rootsnum_worker(args):
    G, r_values, n_random, seed = args
    return check_rootsnum_graph(G, r_values, n_random=n_random, seed=seed)


def checked_orders(r_values) -> tuple:
    """The orders of a sweep as a tuple.  Raises PicardError unless every
    order is at least 1 and none repeats: a repeated order would count the
    same checks twice."""
    r_values = tuple(r_values)
    for r in r_values:
        if r < 1:
            raise PicardError(f"order {r} < 1")
    if len(set(r_values)) != len(r_values):
        raise PicardError(f"repeated orders in {list(r_values)}")
    return r_values


def _check_random_count(n_random: int) -> None:
    """Raise PicardError for a negative number of random bundles, which
    would draw none and still count 3 checks per order."""
    if n_random < 0:
        raise PicardError(f"{n_random} random bundles < 0")


def verify_rootsnum(
    graphs_to_check,
    r_values,
    *,
    n_random: int = 50,
    seed: int = 0,
    jobs: int = 1,
):
    """Check criterion <=> maximal root count over a family of graphs.

    For every graph, every r, and every bundle (powers of the dualizing
    class, the trivial class, and random classes padded to total degree
    0 mod r) the edge criterion must hold exactly when the number of
    roots is r^(2g).  Returns (discrepancies, checked) where any
    discrepancy is a RootsnumRecord of a padded bundle, so its expected
    count is r^(2g).  The graphs are distributed over min(jobs, number of
    graphs, CPU count) worker processes, which ignore SIGINT so that an
    interrupt reaches the caller alone (one that arrives while they start
    is lost); results merge in input order, and with one worker the sweep
    runs in this process.  The orders must pass checked_orders and
    n_random must not be negative.
    """
    r_values = checked_orders(r_values)
    _check_random_count(n_random)
    graphs_to_check = list(graphs_to_check)
    workers = min(jobs, len(graphs_to_check), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        work = [(G, r_values, n_random, seed) for G in graphs_to_check]
        # Workers started while SIGINT is ignored inherit SIG_IGN, so an
        # interrupt reaches this process alone, which then ends the pool.
        handler = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            pool = multiprocessing.Pool(workers)
        finally:
            signal.signal(signal.SIGINT, handler)
        with pool:
            results = pool.map(_rootsnum_worker, work, chunksize=64)
    else:
        results = [
            check_rootsnum_graph(G, r_values, n_random=n_random, seed=seed)
            for G in graphs_to_check
        ]
    discrepancies: list[RootsnumRecord] = []
    checked = 0
    for disc, n in results:
        discrepancies.extend(disc)
        checked += n
    return discrepancies, checked


def _pad_degree(F: LineBundleData, r: int) -> LineBundleData:
    """F with its total degree lowered to a multiple of r on vertex 0."""
    int_part = list(F.int_part)
    int_part[0] -= total_degree(F) % r
    return LineBundleData(F.graph, tuple(int_part), F.mult)
