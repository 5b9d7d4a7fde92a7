"""Exact linear algebra over Z and over finite products of cyclic groups.

Matrices are plain nested lists of Python ints (rows of equal length), so
every computation is arbitrary precision.  The two consumers are the
Smith reduction of integer matrices and homomorphisms between groups
Z/n_1 x ... x Z/n_c -> Z/m_1 x ... x Z/m_r given by an integer matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

__all__ = [
    "AlgebraError",
    "DimensionMismatch",
    "IllDefinedHom",
    "smith_normal_form",
    "smith_invariants",
    "mat_identity",
    "CyclicHom",
    "kernel_size_by_enumeration",
    "kernel_size_by_smith",
    "hom_image_contains",
    "solve_congruence",
]

class AlgebraError(ValueError):
    pass


class DimensionMismatch(AlgebraError):
    pass


class IllDefinedHom(AlgebraError):
    pass


def mat_identity(n: int) -> list[list[int]]:
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


def _min_nonzero_position(D, t):
    """First position, in row-major order, of a least nonzero |entry| in
    the block D[t:][t:]."""
    best = None
    least = 0
    for i in range(t, len(D)):
        row = D[i]
        for j in range(t, len(row)):
            a = abs(row[j])
            if a and (best is None or a < least):
                if a == 1:
                    return i, j
                best, least = (i, j), a
    return best


def _entries(A) -> list[list[int]]:
    """A copy of A's rows; DimensionMismatch when they differ in length."""
    cols = len(A[0]) if A else 0
    if any(len(row) != cols for row in A):
        raise DimensionMismatch("ragged matrix")
    return [list(row) for row in A]


def _reduce(D, UT, V) -> None:
    """Bring D to Smith form in place: diagonal, d_1 | d_2 | ... and every
    d_i >= 0.

    This is the one elimination loop of the module.  Every row operation
    on D is applied to the columns of UT, the transpose of the row
    transform, and every column operation to the columns of V.  Each
    update loops over the rows of UT or V, so a caller that passes both
    empty keeps no transform, with no test per operation.
    """
    rows = len(D)
    cols = len(D[0]) if rows else 0

    def row_op(i, k, q):  # row_i -= q * row_k
        D[i] = [a - q * b for a, b in zip(D[i], D[k])]
        for row in UT:
            row[i] -= q * row[k]

    def col_op(j, k, q):  # col_j -= q * col_k
        for row in D:
            row[j] -= q * row[k]
        for row in V:
            row[j] -= q * row[k]

    t = 0
    while t < min(rows, cols):
        pos = _min_nonzero_position(D, t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            D[t], D[i] = D[i], D[t]
            for row in UT:
                row[t], row[i] = row[i], row[t]
        if j != t:
            for row in D:
                row[t], row[j] = row[j], row[t]
            for row in V:
                row[t], row[j] = row[j], row[t]
        pivot = D[t][t]
        # A unit pivot divides every entry, so it needs no remainder test.
        unit = pivot == 1 or pivot == -1
        if not unit:
            dirty = False
            for i in range(t + 1, rows):
                if D[i][t] % pivot:
                    row_op(i, t, D[i][t] // pivot)
                    dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if D[t][j] % pivot:
                    col_op(j, t, D[t][j] // pivot)
                    dirty = True
            if dirty:
                continue
        for i in range(t + 1, rows):
            if D[i][t]:
                row_op(i, t, D[i][t] // pivot)
        for j in range(t + 1, cols):
            if D[t][j]:
                col_op(j, t, D[t][j] // pivot)
        if not unit:
            # Divisibility d_t | d_{t+1} | ...: fold the first offending row
            # in and redo.
            offender = None
            for i in range(t + 1, rows):
                if any([a % pivot for a in D[i][t + 1 :]]):
                    offender = i
                    break
            if offender is not None:
                row_op(t, offender, -1)
                continue
        t += 1
    for i in range(min(rows, cols)):
        if D[i][i] < 0:
            D[i] = [-a for a in D[i]]
            for row in UT:
                row[i] = -row[i]


def smith_normal_form(A):
    """Return (U, D, V) with D = U*A*V, U and V unimodular, D = diag(d_1, ...),
    d_1 | d_2 | ... and all d_i >= 0.
    """
    D = _entries(A)
    UT = mat_identity(len(D))
    V = mat_identity(len(D[0]) if D else 0)
    _reduce(D, UT, V)
    return [list(col) for col in zip(*UT)], D, V


def smith_invariants(A) -> tuple[int, ...]:
    """The diagonal d_1 | d_2 | ... of the Smith form of A, min(rows, cols)
    entries, zeros included: the loop of smith_normal_form with no
    unimodular transform kept."""
    D = _entries(A)
    _reduce(D, [], [])
    return tuple([D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))])


@dataclass(frozen=True)
class CyclicHom:
    """Homomorphism prod Z/n_j -> prod Z/m_i given by an integer matrix.

    Well-definedness (m_i divides matrix[i][j] * n_j) is checked at
    construction so convention errors in map assembly fail immediately.
    """

    matrix: tuple[tuple[int, ...], ...]
    domain_moduli: tuple[int, ...]
    codomain_moduli: tuple[int, ...]

    def __post_init__(self):
        rows = len(self.codomain_moduli)
        cols = len(self.domain_moduli)
        if len(self.matrix) != rows or any(len(row) != cols for row in self.matrix):
            raise DimensionMismatch(
                f"matrix shape does not match {rows} x {cols} moduli"
            )
        if any(n < 1 for n in self.domain_moduli + self.codomain_moduli):
            raise AlgebraError("moduli must be positive")
        ns = self.domain_moduli
        for i, (row, m) in enumerate(zip(self.matrix, self.codomain_moduli)):
            for j, n in enumerate(ns):
                if row[j] * n % m:
                    raise IllDefinedHom(
                        f"entry ({i}, {j}) does not send n_j-torsion to m_i-torsion"
                    )

    @classmethod
    def of(cls, matrix, domain_moduli, codomain_moduli) -> "CyclicHom":
        return cls(
            tuple([tuple(map(int, row)) for row in matrix]),
            tuple(map(int, domain_moduli)),
            tuple(map(int, codomain_moduli)),
        )

    @property
    def domain_size(self) -> int:
        return prod(self.domain_moduli)

    def apply(self, x) -> tuple[int, ...]:
        if len(x) != len(self.domain_moduli):
            raise DimensionMismatch("vector length does not match the domain")
        return tuple(
            sum(a * v for a, v in zip(row, x)) % m
            for row, m in zip(self.matrix, self.codomain_moduli)
        )


def kernel_size_by_enumeration(h: CyclicHom) -> int:
    """Count kernel elements by sweeping the whole domain.

    The sweep is split in two halves whose images are tabulated and
    matched, which visits every domain element implicitly but costs only
    about the square root of the domain size.
    """
    return _match_count(h, (0,) * len(h.codomain_moduli))


def _half_table(h: CyclicHom, indices) -> dict[tuple[int, ...], int]:
    table: dict[tuple[int, ...], int] = {}
    mods = h.codomain_moduli
    columns = [tuple(h.matrix[i][j] for i in range(len(mods))) for j in indices]
    ranges = [range(h.domain_moduli[j]) for j in indices]
    for x in itertools.product(*ranges):
        key = tuple(
            sum(col[i] * v for col, v in zip(columns, x)) % mods[i]
            for i in range(len(mods))
        )
        table[key] = table.get(key, 0) + 1
    return table


def _split_indices(h: CyclicHom) -> tuple[list[int], list[int]]:
    order = sorted(range(len(h.domain_moduli)), key=lambda j: -h.domain_moduli[j])
    left: list[int] = []
    right: list[int] = []
    size_l = size_r = 1
    for j in order:
        if size_l <= size_r:
            left.append(j)
            size_l *= h.domain_moduli[j]
        else:
            right.append(j)
            size_r *= h.domain_moduli[j]
    return left, right


def _match_count(h: CyclicHom, target) -> int:
    left, right = _split_indices(h)
    table_l = _half_table(h, left)
    table_r = _half_table(h, right)
    if len(table_l) > len(table_r):
        table_l, table_r = table_r, table_l
    mods = h.codomain_moduli
    total = 0
    for key, count in table_l.items():
        complement = tuple((t - k) % m for t, k, m in zip(target, key, mods))
        total += count * table_r.get(complement, 0)
    return total


def _relations(h: CyclicHom) -> list[list[int]]:
    """The matrix [A | diag(m)]: the columns of h next to the moduli of its
    codomain, whose integer span is the preimage of the image of h."""
    rows = len(h.codomain_moduli)
    return [
        list(h.matrix[i]) + [h.codomain_moduli[i] if j == i else 0 for j in range(rows)]
        for i in range(rows)
    ]


def kernel_size_by_smith(h: CyclicHom) -> int:
    """Kernel size via the relation lattice, built modulo the codomain.

    |ker h| = prod(n_j) * |coker| / prod(m_i), where the cokernel is that of
    the lattice L in Z^rows spanned by the columns of A and the vectors
    m_i e_i: the image of h is L / span(m_i e_i).  |coker| is the
    determinant of L, the product of the diagonal of a triangular basis.

    Every m_k e_k lies in L, so each generator keeps its entry k reduced mod
    m_k, and every vector made later is reduced the same way: entries stay
    below their moduli.  Coordinates are settled from the last to the
    first, each vector giving up (popping) the entry being settled.  At
    coordinate i the generators nonzero there are folded into one pivot p,
    each by one unimodular step: a shear when one entry divides the other
    (with a swap when the new entry is the smaller), otherwise the
    extended-gcd 2 x 2 step of determinant -1.  Each remainder, zero at i,
    moves on to the next coordinate.  Folding m_i e_i in last gives the
    diagonal entry g = gcd(p_i, m_i) and the remainder (m_i / g) * p, zero
    at i mod m_i.  That remainder moves on too, also when g = p_i: it is
    the only record of the multiples of p that vanish at i.

    This route builds no unimodular transform and calls none of
    smith_normal_form, smith_invariants or their elimination loop, so it
    stays an independent check of the Smith reduction that the library
    counts go through.
    """
    mods = h.codomain_moduli
    pool = []
    for col in zip(*h.matrix):
        v = [a % m for a, m in zip(col, mods)]
        if any(v):
            pool.append(v)
    coker = 1
    for i in range(len(mods) - 1, -1, -1):
        m = mods[i]
        p = None
        rest = []
        for v in pool:
            b = v.pop()
            if not b:
                rest.append(v)
                continue
            if p is None:
                p, a = v, b
                continue
            if not b % a:  # shear
                q = b // a
                w = [(x - q * y) % n for x, y, n in zip(v, p, mods)]
            elif not a % b:  # swap and shear
                q = a // b
                w = [(y - q * x) % n for x, y, n in zip(v, p, mods)]
                p, a = v, b
            else:  # s*a + t*b = g
                g = gcd(a, b)
                s = pow(a // g, -1, b // g)
                t = (g - s * a) // b
                u, z = b // g, a // g
                w = [(u * y - z * x) % n for x, y, n in zip(v, p, mods)]
                p = [(s * y + t * x) % n for x, y, n in zip(v, p, mods)]
                a = g
            if any(w):
                rest.append(w)
        if p is None:
            coker *= m
        else:
            g = a if not m % a else gcd(a, m)
            coker *= g
            q = m // g
            w = [q * y % n for y, n in zip(p, mods)]
            if any(w):
                rest.append(w)
        pool = rest
    return h.domain_size * coker // prod(mods)


def hom_image_contains(h: CyclicHom, t) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether t lies in the image of h; on success return a witness x
    with h(x) = t exactly.

    Solves A x + diag(m) y = t over Z through the Smith form.
    """
    rows = len(h.codomain_moduli)
    cols = len(h.domain_moduli)
    if len(t) != rows:
        raise DimensionMismatch(f"target has {len(t)} entries, codomain {rows}")
    if rows == 0:
        return True, (0,) * cols
    U, D, V = smith_normal_form(_relations(h))
    rhs = [sum(U[i][k] * t[k] for k in range(rows)) for i in range(rows)]
    w = []
    for i in range(rows):
        d = D[i][i]
        if d == 0:
            if rhs[i]:
                return False, None
            w.append(0)
        else:
            if rhs[i] % d:
                return False, None
            w.append(rhs[i] // d)
    w += [0] * (cols + rows - len(w))
    z = [sum(V[j][i] * w[i] for i in range(len(w))) for j in range(cols + rows)]
    witness = tuple(z[j] % h.domain_moduli[j] for j in range(cols))
    if h.apply(witness) != tuple(v % m for v, m in zip(t, h.codomain_moduli)):
        raise AlgebraError("image witness does not map to the target")
    return True, witness


def solve_congruence(a: int, b: int, n: int) -> tuple[int, int] | None:
    """Solve a*x = b (mod n); returns (x0, step) describing all solutions
    x0 + step*Z, or None when gcd(a, n) does not divide b.
    """
    if n < 1:
        raise AlgebraError(f"modulus {n} < 1")
    g = gcd(a, n)
    if b % g:
        return None
    step = n // g
    if step == 1:
        return 0, 1
    x0 = (b // g) * pow(a // g, -1, step) % step
    return x0, step
