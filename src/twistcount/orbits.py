"""Ghost automorphisms acting on root classes, and orbit counting.

On an all-rational graph the r-th root classes with multiplicity vector m
are the gluing residues in Z/r per edge modulo coboundaries.  One Smith
reduction of the coboundary matrix gives coordinates for them in
(Z/r)^{b1}: the rows of its left transform past the first V - 1.  The
ghost generator at an edge e twists the gluing there by (r/l_e) * mult_e;
it is available when l_e divides r, and generators at the remaining edges
act trivially on r-th root classes and are omitted.  The action is
linear: on the classes with multiplicity vector m the ghost group
translates by the subgroup H_m of (Z/r)^{b1} spanned by the twists, so m
contributes |Q_m| orbits, Q_m = (Z/r)^{b1} / H_m.
The genus-1 involution negates all discrete data; it pairs m with -m, and
a self-paired m contributes (|Q_m| + |Q_m[2]|) / 2 orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from . import picard
from .exactalg import smith_invariants, smith_normal_form
from .graphs import (
    DualGraph,
    Edge,
    MultiIndex,
    _check_profile_length,
    dual_graph,
    enumerate_stable_graphs,
    node_type_index,
)
from .picard import (
    DEFAULT_MAX_DOMAIN,
    DomainTooLarge,
    HypothesisViolated,
    LineBundleData,
    count_roots,
    omega_bundle,
)

__all__ = [
    "OrbitError",
    "NotRational",
    "BadAutOrder",
    "BadR",
    "FibreExceedsDegree",
    "ghost_group_order",
    "acting_edges",
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


class BadAutOrder(OrbitError):
    pass


class BadR(OrbitError):
    pass


class FibreExceedsDegree(OrbitError):
    pass


def ghost_group_order(G: DualGraph) -> int:
    """Order of the group of automorphisms fixing the coarse curve."""
    return prod(e.stabilizer for e in G.edges)


def acting_edges(G: DualGraph, r: int) -> list[int]:
    """Edges whose ghost generator acts on r-th root classes."""
    return [k for k, e in enumerate(G.edges) if r % e.stabilizer == 0]


def _rational_counter(G: DualGraph, r: int) -> picard.RootCounter:
    """The root counter of (G, r), for an all-rational graph."""
    if any(v.genus for v in G.vertices):
        raise NotRational("root classes require an all-rational graph")
    return picard._counter(G, r)


def _coordinates(G: DualGraph) -> tuple[list[list[int]], list[int]]:
    """(C, loops) such that for every r the map beta -> (C beta, beta on
    the loops) (mod r) identifies (Z/r)^E / coboundaries with (Z/r)^{b1}.

    A loop's coboundary is zero, so its coordinate is its own entry of
    beta, and only the other edges are reduced: C is rows V - 1 onwards of
    U in the Smith form D = U A V of their coboundary matrix A, written
    out over all E edges (zero on the loops).  A connected graph's
    incidence matrix is totally unimodular of rank V - 1, so D must have
    V - 1 unit invariants and zeros after them, which is checked."""
    nv = G.n_vertices
    loops = [k for k, e in enumerate(G.edges) if e.head == e.tail]
    links = [k for k, e in enumerate(G.edges) if e.head != e.tail]
    if not links:
        return [], loops
    coboundary = [[0] * nv for _ in links]
    for row, k in zip(coboundary, links):
        row[G.edges[k].head] += 1
        row[G.edges[k].tail] -= 1
    U, D, _ = smith_normal_form(coboundary)
    rank = nv - 1
    diag = [D[i][i] for i in range(min(len(links), nv))]
    if diag != [1] * rank + [0] * (len(diag) - rank):
        raise OrbitError(f"coboundary invariants {diag} are not {rank} units then zeros")
    rows = []
    for u in U[rank:]:
        row = [0] * G.n_edges
        for k, a in zip(links, u):
            row[k] = a
        rows.append(row)
    return rows, loops


def _quotient_mods(twists, b1: int, r: int) -> list[int]:
    """The orders of the cyclic factors of Q = (Z/r)^{b1} / H, H spanned by
    the nonzero twists: gcd(d, r) over the Smith invariants d of the
    b1 x |twists| matrix with the twists as columns, padded with zeros to
    b1 of them, so that with no twist Q is all of (Z/r)^{b1}."""
    diag = smith_invariants(list(zip(*twists))) if twists else ()
    return [gcd(d, r) for d in diag] + [r] * (b1 - len(diag))


def _orbit_sizes(G: DualGraph, r: int, mults, with_involution: bool, max_orbits: int) -> list[int]:
    """Sizes of the orbits on all classes of (G, r) with the given
    multiplicity vectors, listed per vector.  DomainTooLarge, before any
    size is listed, when there are more than max_orbits of them.

    In the coordinates of _coordinates, the ghost generator at an acting
    edge k translates the classes of m by (r/l_k) * m_k times column k.
    The ghost orbits on the classes of m are the cosets of the span H_m
    of those twists, of size r^{b1} / |Q_m| each.  A loop's twist moves
    its own coordinate alone, so it splits off a factor Z/gcd(twist, r)
    of Q_m (Z/r when the loop does not act).  The involution joins the
    cosets of m and -m in pairs, and for a self-paired m fixes the
    |Q_m[2]| cosets x with 2x in H_m.
    """
    rows, loops = _coordinates(G)
    b1 = len(rows) + len(loops)
    stabs = [e.stabilizer for e in G.edges]
    steps = {k: r // stabs[k] for k in acting_edges(G, r)}
    units = [
        (k, step, [row[k] for row in rows])
        for k, step in steps.items()
        if G.edges[k].head != G.edges[k].tail
    ]
    loop_steps = [(k, steps.get(k, 0)) for k in loops]
    accepted = set(mults)
    full = r**b1
    runs = []  # (number of orbits, their size)
    for m in mults:
        twists = []
        for k, step, unit in units:
            twist = [step * m[k] * u % r for u in unit]
            if any(twist):
                twists.append(twist)
        mods = _quotient_mods(twists, len(rows), r)
        mods += [gcd(step * m[k], r) for k, step in loop_steps]
        size, two_torsion = prod(mods), prod(gcd(2, x) for x in mods)
        coset = full // size
        if not with_involution:
            runs.append((size, coset))
            continue
        pair = tuple((-a) % l for a, l in zip(m, stabs))
        if pair not in accepted:
            raise OrbitError(
                f"the involution sends multiplicities {list(m)} to {list(pair)},"
                " which carry no root class"
            )
        if pair == m:
            runs += [(two_torsion, coset), ((size - two_torsion) // 2, 2 * coset)]
        elif m < pair:
            runs.append((size, 2 * coset))
    orbits = sum(n for n, _ in runs)
    if orbits > max_orbits:
        raise DomainTooLarge(f"{picard._decimal(orbits)} orbits exceed the cap {max_orbits}")
    sizes = []
    for n, coset in runs:
        sizes += [coset] * n
    return sizes


def orbit_count(
    G: DualGraph,
    F: LineBundleData,
    r: int,
    with_involution: bool = False,
    *,
    nontrivial: bool = False,
    max_domain: int = DEFAULT_MAX_DOMAIN,
) -> tuple[int, list[int]]:
    """Orbits of the ghost group (plus, optionally, the involution) on the
    r-th root classes of F: their number and their sizes, largest first.

    Counted per multiplicity vector, without building any class.  With
    nontrivial, the orbit of the trivial class (multiplicities 0, gluing
    0), a singleton, is left out when that class is a root of F.  The
    discrete roots and the orbits
    must fit max_domain; the classes need not.  An orbit holds at most
    the ghost group's order of classes (twice that with the involution),
    so classes past that many times the cap are refused at once.
    """
    counter = _rational_counter(G, r)
    mults = counter.solutions(F, max_domain)
    if not mults:
        return 0, []
    classes = counter.count(F)
    if classes > max_domain * ghost_group_order(G) * (2 if with_involution else 1):
        raise DomainTooLarge(
            f"{picard._decimal(classes)} root classes make more than {max_domain} orbits"
        )
    sizes = _orbit_sizes(G, r, mults, with_involution, max_domain)
    if nontrivial and (0,) * G.n_edges in mults:
        sizes.remove(1)
    sizes.sort(reverse=True)
    return len(sizes), sizes


# ---------------------------------------------------------------------------
# Elliptic fixtures


_TORSION_GENERATORS = {
    2: ((-1, 0), (0, -1)),
    4: ((0, -1), (1, 0)),
    6: ((0, -1), (1, 1)),
}


def elliptic_torsion_orbits(r: int, aut_order: int) -> int:
    """Orbits of the nonzero r-torsion plane under the cyclic reduced
    automorphism group of an elliptic curve (order 2, 4, or 6).

    Counted by Burnside's lemma: the k-th power A^k of the generator fixes
    the points of the kernel of A^k - I on (Z/r)^2, the origin among them.
    An endomorphism of a finite group has as large a kernel as cokernel,
    so they number the product of _quotient_mods over the columns of
    A^k - I.
    """
    if aut_order not in _TORSION_GENERATORS:
        raise BadAutOrder(f"automorphism order {aut_order} not in (2, 4, 6)")
    if r in (2, 3) or not _is_prime(r):
        raise BadR(f"{r} is not a prime >= 5")
    (p, q), (s, t) = _TORSION_GENERATORS[aut_order]
    (a, b), (c, d) = (1, 0), (0, 1)  # A^k, from k = 0
    fixed_total = 0
    for _ in range(aut_order):
        fixed_total += prod(_quotient_mods([(a - 1, c), (b, d - 1)], 2, r)) - 1
        (a, b), (c, d) = (p * a + q * c, p * b + q * d), (s * a + t * c, s * b + t * d)
    if fixed_total % aut_order:
        raise OrbitError(
            f"Burnside sum {fixed_total} is not a multiple of the group order {aut_order}"
        )
    return fixed_total // aut_order


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

    The generic fibre has (r^2-1)/2 points and the two special smooth
    fibres are counted by torsion orbits.  The cusp fibre is the number of
    ghost-plus-involution orbits on the r-th roots of omega on the one-loop
    fixture, summed per multiplicity vector (never hard-coded), minus the
    orbit of the trivial class, which must be among them.  The resulting
    genus must be (r-5)(r-7)/24.  The fixture has r discrete roots, so an
    r past DEFAULT_MAX_DOMAIN is refused before the primality test.
    """
    if r < 5:
        raise BadR(f"{r} is not a prime >= 5")
    if r > DEFAULT_MAX_DOMAIN:
        raise DomainTooLarge(
            f"{picard._decimal(r)} discrete roots exceed the cap {DEFAULT_MAX_DOMAIN}"
        )
    if not _is_prime(r):
        raise BadR(f"{r} is not a prime >= 5")
    degree = (r * r - 1) // 2
    n_j1728 = elliptic_torsion_orbits(r, 4)
    n_j0 = elliptic_torsion_orbits(r, 6)
    fixture = _cusp_fixture(r)
    mults = picard._counter(fixture, r).solutions(omega_bundle(fixture, 1))
    if (0,) not in mults:
        raise OrbitError(f"the trivial class is not a root of omega on the cusp fixture, r={r}")
    # r orbits, the r - 1 cusps and the trivial class, within the cap as r is.
    sizes = _orbit_sizes(fixture, r, mults, True, DEFAULT_MAX_DOMAIN)
    n_cusp = len(sizes) - 1
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
    _check_profile_length(g, l)
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
    _check_profile_length(g, l)
    hypothesis_ok = ((2 * g - 2) * k) % r == 0
    condition = cond_check(g, r, l, k) if hypothesis_ok else False
    expected = r ** (2 * g)
    witnesses = []
    for shape in enumerate_stable_graphs(g, 0, (1,)):
        G = redecorate(shape, l)
        n = count_roots(G, omega_bundle(G, k), r)
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
    if r < 1:
        raise OrbitError(f"order {r} < 1")
    ds = [int(d) for d in node_stabilizers]
    if any(d < 1 for d in ds):
        raise OrbitError("node stabilizers must be >= 1")
    return Fraction(r ** len(ds), prod(ds) if ds else 1)
