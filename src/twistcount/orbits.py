"""Ghost automorphisms acting on root classes, and orbit counting.

On an all-rational graph a discrete root class is pinned down by its
branch multiplicities together with a gluing residue in Z/r per edge,
taken modulo coboundaries (rescaling the components).  Classes are stored
in spanning-tree normal form: the gluing residue vanishes on a fixed BFS
tree, so class equality is plain data equality.

The ghost generator at an edge e twists the gluing there by
(r/l_e) * mult_e; it is available when l_e divides r, and generators at
the remaining edges act trivially on r-th root classes and are omitted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from . import picard
from .graphs import (
    DualGraph,
    Edge,
    MultiIndex,
    MultiIndexLengthMismatch,
    betti,
    dual_graph,
    enumerate_stable_graphs,
    node_type_index,
    spanning_tree,
)
from .picard import (
    DEFAULT_MAX_DOMAIN,
    HypothesisViolated,
    LineBundleData,
    PicardError,
    count_roots,
    omega_bundle,
)

__all__ = [
    "OrbitError",
    "NotRational",
    "StabilizerNotDivisible",
    "BadAutOrder",
    "BadR",
    "FibreExceedsDegree",
    "RootClass",
    "root_class",
    "ghost_group_order",
    "acting_edges",
    "ghost_act",
    "involution_act",
    "enumerate_root_classes",
    "orbit_count",
    "redecorate",
    "elliptic_torsion_orbits",
    "riemann_hurwitz_chi",
    "NrReport",
    "nr_report",
    "cond_check",
    "CondReport",
    "verify_cond",
    "aut_order_ratio",
]


class OrbitError(ValueError):
    pass


class NotRational(OrbitError):
    pass


class StabilizerNotDivisible(OrbitError):
    pass


class BadAutOrder(OrbitError):
    pass


class BadR(OrbitError):
    pass


class FibreExceedsDegree(OrbitError):
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
    """Subtract the unique coboundary that kills beta on the spanning tree."""
    tree = spanning_tree(G)
    tree_set = set(tree)
    potentials = [None] * G.n_vertices
    potentials[0] = 0
    incident = [[] for _ in range(G.n_vertices)]
    for k in tree:
        e = G.edges[k]
        incident[e.tail].append((e.head, k, 1))
        incident[e.head].append((e.tail, k, -1))
    queue = [0]
    while queue:
        v = queue.pop(0)
        for w, k, sign in incident[v]:
            if potentials[w] is None:
                # beta_k = alpha_head - alpha_tail must become 0 on the tree.
                potentials[w] = (potentials[v] + sign * beta[k]) % r
                queue.append(w)
    out = []
    for k, e in enumerate(G.edges):
        if k in tree_set:
            out.append(0)
        else:
            out.append((beta[k] - (potentials[e.head] - potentials[e.tail])) % r)
    return tuple(out)


def root_class(G: DualGraph, r: int, mult, gluing) -> RootClass:
    return RootClass(G, r, tuple(mult), _normalize_gluing(G, r, gluing))


def ghost_group_order(G: DualGraph) -> int:
    """Order of the group of automorphisms fixing the coarse curve."""
    return prod(e.stabilizer for e in G.edges)


def acting_edges(G: DualGraph, r: int) -> list[int]:
    """Edges whose ghost generator acts on r-th root classes."""
    return [k for k, e in enumerate(G.edges) if r % e.stabilizer == 0]


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
    the non-tree edges; their number is exactly count_roots(G, F, r).
    """
    if any(v.genus for v in G.vertices):
        raise NotRational("root classes require an all-rational graph")
    mults = picard._counter(G, r, max_domain).solutions(F)
    b1 = betti(G)
    if mults and len(mults) * r**b1 > max_domain:
        raise picard.DomainTooLarge(
            f"{len(mults) * r ** b1} root classes exceed the cap {max_domain}"
        )
    tree = set(spanning_tree(G))
    free = [k for k in range(G.n_edges) if k not in tree]
    out = []
    for mult in mults:
        for residues in itertools.product(range(r), repeat=len(free)):
            beta = [0] * G.n_edges
            for k, b in zip(free, residues):
                beta[k] = b
            out.append(RootClass(G, r, tuple(mult), tuple(beta)))
    return out


def _group_elements(G: DualGraph, r: int, with_involution: bool):
    edges = acting_edges(G, r)
    ranges = [range(G.edges[k].stabilizer) for k in edges]
    flips = (False, True) if with_involution else (False,)
    for powers in itertools.product(*ranges):
        for flip in flips:
            yield edges, powers, flip


def _apply_element(c: RootClass, edges, powers, flip) -> RootClass:
    G, r = c.graph, c.r
    beta = list(c.gluing)
    for k, p in zip(edges, powers):
        l = G.edges[k].stabilizer
        beta[k] = (beta[k] + p * (r // l) * c.mult[k]) % r
    out = RootClass(G, r, c.mult, _normalize_gluing(G, r, beta))
    if flip:
        out = involution_act(out)
    return out


def orbit_count(
    G: DualGraph,
    F: LineBundleData,
    r: int,
    with_involution: bool = False,
    *,
    classes: list[RootClass] | None = None,
    max_domain: int = DEFAULT_MAX_DOMAIN,
) -> tuple[int, list[list[RootClass]]]:
    """Orbits of the ghost group (plus, optionally, the involution).

    The direct orbit partition is cross-checked against the Burnside
    average of fixed-point counts; a mismatch raises.
    """
    if classes is None:
        classes = enumerate_root_classes(G, F, r, max_domain)
    index = {c: i for i, c in enumerate(classes)}
    generators = acting_edges(G, r)
    seen = [False] * len(classes)
    orbits: list[list[RootClass]] = []
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
                j = index[image]
                if not seen[j]:
                    seen[j] = True
                    stack.append(image)
        orbits.append(sorted(orbit, key=lambda c: (c.mult, c.gluing)))
    class_set = set(classes)
    fixed_total = 0
    n_elements = 0
    for edges, powers, flip in _group_elements(G, r, with_involution):
        n_elements += 1
        for c in classes:
            image = _apply_element(c, edges, powers, flip)
            if image not in class_set:
                raise OrbitError("the group action leaves the set of root classes")
            if image == c:
                fixed_total += 1
    if fixed_total % n_elements:
        raise OrbitError(
            f"Burnside sum {fixed_total} is not a multiple of the group order {n_elements}"
        )
    burnside = fixed_total // n_elements
    if burnside != len(orbits):
        raise OrbitError(
            f"Burnside count {burnside} disagrees with {len(orbits)} direct orbits"
        )
    orbits.sort(key=lambda orbit: (orbit[0].mult, orbit[0].gluing))
    return len(orbits), orbits


# ---------------------------------------------------------------------------
# Elliptic fixtures


_TORSION_GENERATORS = {
    2: ((-1, 0), (0, -1)),
    4: ((0, -1), (1, 0)),
    6: ((0, -1), (1, 1)),
}


def elliptic_torsion_orbits(r: int, aut_order: int) -> int:
    """Orbits of the nonzero r-torsion plane under the cyclic reduced
    automorphism group of an elliptic curve (order 2, 4, or 6)."""
    if aut_order not in _TORSION_GENERATORS:
        raise BadAutOrder(f"automorphism order {aut_order} not in (2, 4, 6)")
    if r in (2, 3) or not _is_prime(r):
        raise BadR(f"{r} is not a prime >= 5")
    (a, b), (c, d) = _TORSION_GENERATORS[aut_order]

    def act(p):
        x, y = p
        return ((a * x + b * y) % r, (c * x + d * y) % r)

    points = [(x, y) for x in range(r) for y in range(r) if (x, y) != (0, 0)]
    seen = set()
    orbits = 0
    for p in points:
        if p in seen:
            continue
        orbits += 1
        q = p
        while q not in seen:
            seen.add(q)
            q = act(q)
    # Burnside cross-check over the cyclic group.
    fixed_total = 0
    for k in range(aut_order):
        fixed_total += sum(1 for p in points if _iterate(act, p, k) == p)
    if fixed_total != aut_order * orbits:
        raise OrbitError(
            f"Burnside sum {fixed_total} disagrees with {orbits} direct orbits"
            f" of a group of order {aut_order}"
        )
    return orbits


def _iterate(f, p, k):
    for _ in range(k):
        p = f(p)
    return p


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def riemann_hurwitz_chi(degree: int, fibre_point_counts) -> int:
    """Euler characteristic of a degree-d cover of the projective line whose
    only ramified fibres have the listed numbers of points."""
    for n in fibre_point_counts:
        if n > degree:
            raise FibreExceedsDegree(f"fibre with {n} points on a degree-{degree} cover")
    return 2 * degree - sum(degree - n for n in fibre_point_counts)


@dataclass(frozen=True)
class NrReport:
    """Numerical profile of the curve of nontrivial spin structures of a
    given odd prime order over the 1-pointed genus-1 moduli line."""

    r: int
    degree: int
    n_j1728: int
    n_j0: int
    n_cusp: int
    euler: int
    genus_nr: int


def _cusp_fixture(r: int) -> DualGraph:
    return dual_graph([(0, [1])], [(0, 0, r)])


def nr_report(r: int) -> NrReport:
    """Assemble the cover data for the space of nontrivial r-spin structures.

    The generic fibre has (r^2-1)/2 points, the two special smooth fibres
    are counted by torsion orbits, and the cusp fibre is counted by the
    ghost-plus-involution orbit machinery on the one-loop fixture (never
    hard-coded).  The resulting genus must be (r-5)(r-7)/24.
    """
    if r < 5 or not _is_prime(r):
        raise BadR(f"{r} is not a prime >= 5")
    degree = (r * r - 1) // 2
    n_j1728 = elliptic_torsion_orbits(r, 4)
    n_j0 = elliptic_torsion_orbits(r, 6)
    fixture = _cusp_fixture(r)
    F = omega_bundle(fixture, 1)
    classes = enumerate_root_classes(fixture, F, r)
    nontrivial = [c for c in classes if any(c.mult) or any(c.gluing)]
    n_cusp, _ = orbit_count(fixture, F, r, with_involution=True, classes=nontrivial)
    euler = riemann_hurwitz_chi(degree, [n_j1728, n_j0, n_cusp])
    if euler % 2:
        raise OrbitError(f"odd Euler characteristic {euler} for r={r}")
    genus_nr = 1 - euler // 2
    expected = (r - 5) * (r - 7) // 24
    if genus_nr != expected:
        raise OrbitError(
            f"genus {genus_nr} contradicts the closed form {expected} for r={r}"
        )
    return NrReport(r, degree, n_j1728, n_j0, n_cusp, euler, genus_nr)


# ---------------------------------------------------------------------------
# Stability profiles


def cond_check(g: int, r: int, l: MultiIndex, k: int) -> bool:
    """Divisibility test for the root torsor to persist over every stable
    shape: r | l_0 and r | (2i-1)*k*l_i for all separating types i."""
    if len(l) != g // 2 + 1:
        raise MultiIndexLengthMismatch(
            f"multiindex has {len(l)} entries, genus {g} needs {g // 2 + 1}"
        )
    if ((2 * g - 2) * k) % r:
        raise HypothesisViolated(
            f"total degree {(2 * g - 2) * k} is not a multiple of {r}"
        )
    if l[0] % r:
        return False
    return all(((2 * i - 1) * k * l[i]) % r == 0 for i in range(1, len(l)))


@dataclass(frozen=True)
class CondReport:
    g: int
    r: int
    l: MultiIndex
    k: int
    hypothesis_ok: bool
    condition: bool
    all_maximal: bool
    equivalent: bool
    witnesses: tuple


def redecorate(shape: DualGraph, l: MultiIndex) -> DualGraph:
    """Force the stabilizer of every node to the entry of its type."""
    edges = tuple(
        Edge(e.tail, e.head, l[node_type_index(shape, k)])
        for k, e in enumerate(shape.edges)
    )
    return DualGraph(shape.vertices, edges)


def verify_cond(
    g: int,
    r: int,
    l: MultiIndex,
    k: int,
    max_domain: int = DEFAULT_MAX_DOMAIN,
) -> CondReport:
    """Exhaustively compare cond_check with the counted roots of the k-th
    dualizing power over every stable shape of genus g, stabilized by l.

    When the total-degree hypothesis (2g-2)k = 0 mod r fails, no bundle
    has roots and the condition is recorded as false rather than an
    error, so the equivalence can still be verified.
    """
    if g < 2:
        raise picard.PicardError(f"profile sweeps need genus >= 2, got {g}")
    if r < 1:
        raise picard.PicardError(f"order {r} < 1")
    hypothesis_ok = ((2 * g - 2) * k) % r == 0
    condition = cond_check(g, r, l, k) if hypothesis_ok else False
    expected = r ** (2 * g)
    witnesses = []
    for shape in enumerate_stable_graphs(g, 0, (1,)):
        G = redecorate(shape, l)
        n = count_roots(G, omega_bundle(G, k), r, max_domain)
        if n != expected:
            witnesses.append((G, n))
    all_maximal = not witnesses
    return CondReport(
        g=g,
        r=r,
        l=l,
        k=k,
        hypothesis_ok=hypothesis_ok,
        condition=condition,
        all_maximal=all_maximal,
        equivalent=condition == all_maximal,
        witnesses=tuple(witnesses),
    )


def aut_order_ratio(r: int, node_stabilizers) -> Fraction:
    """Ratio r^m / (d_1 * ... * d_m) of automorphism-group orders between a
    fully r-stabilized spin curve and its image with stabilizers d_i."""
    ds = [int(d) for d in node_stabilizers]
    if any(d < 1 for d in ds):
        raise OrbitError("node stabilizers must be >= 1")
    return Fraction(r ** len(ds), prod(ds) if ds else 1)
