import hashlib
import itertools
import random
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcount.exactalg import (
    CyclicHom,
    DimensionMismatch,
    IllDefinedHom,
    hom_image_contains,
    kernel_size_by_enumeration,
    kernel_size_by_smith,
    mat_identity,
    smith_invariants,
    smith_normal_form,
    solve_congruence,
)
from twistcount.oracles import det, image_size_by_enumeration, mat_mul

matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestSmithNormalForm:
    @given(matrices)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_and_shape(self, A):
        U, D, V = smith_normal_form(A)
        assert mat_mul(mat_mul(U, A), V) == D
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        n = min(len(A), len(A[0]))
        for i in range(len(D)):
            for j in range(len(D[0])):
                if i != j:
                    assert D[i][j] == 0
        diag = [D[i][i] for i in range(n)]
        assert smith_invariants(A) == tuple(diag)
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0

    def test_coprime_pair(self):
        _, D, _ = smith_normal_form([[2, 0], [0, 3]])
        assert [D[0][0], D[1][1]] == [1, 6]

    def test_identity(self):
        U, D, V = smith_normal_form(mat_identity(3))
        assert D == mat_identity(3)

    def test_zero(self):
        U, D, V = smith_normal_form([[0, 0], [0, 0]])
        assert D == [[0, 0], [0, 0]]
        assert abs(det(U)) == 1 and abs(det(V)) == 1


# sha256 over repr((U, D, V)) of every matrix of _smith_corpus.
SMITH_CORPUS_DIGEST = "d8978f2c51d901239dbcc7a7548ed74c12f3fa9917f5741399bcebc28e0bc243"


def _smith_corpus():
    """A pinned corpus: seeded random matrices up to 5 x 6 with zero rows,
    zero columns and negative entries, 0 x n and n x 0 ones, and boundary
    matrices of random multigraphs (+w at the head, -w at the tail)."""
    rng = random.Random(2028)
    corpus = [[], [[]], [[], [], []], [[0, 0, 0]]]
    for _ in range(600):
        rows, cols = rng.randint(0, 5), rng.randint(0, 6)
        corpus.append(
            [[rng.choice((0, 0, rng.randint(-30, 30))) for _ in range(cols)] for _ in range(rows)]
        )
    for _ in range(300):
        n, edges = rng.randint(1, 5), rng.randint(0, 7)
        matrix = [[0] * edges for _ in range(n)]
        for k in range(edges):
            w = rng.choice((1, 2, 3, 6))
            matrix[rng.randrange(n)][k] += w
            matrix[rng.randrange(n)][k] -= w
        corpus.append(matrix)
    return corpus


class TestSmithInvariants:
    def test_equal_the_diagonal_of_the_full_reduction(self):
        shapes = set()
        for A in _smith_corpus():
            _, D, _ = smith_normal_form(A)
            n = min(len(D), len(D[0]) if D else 0)
            assert smith_invariants(A) == tuple(abs(D[i][i]) for i in range(n))
            shapes.add((len(A), len(A[0]) if A else 0))
        assert {(0, 0), (1, 0), (3, 0), (1, 3), (5, 6)} <= shapes

    @pytest.mark.parametrize("reduce", [smith_invariants, smith_normal_form])
    def test_ragged_matrix_refused(self, reduce):
        with pytest.raises(DimensionMismatch):
            reduce([[1, 2], [3]])

    def test_transforms_pinned(self):
        # Root lists and witnesses read V, so a change to the elimination
        # loop must leave every transform where it is.
        digest = hashlib.sha256()
        for A in _smith_corpus():
            digest.update(repr(smith_normal_form(A)).encode())
        assert digest.hexdigest() == SMITH_CORPUS_DIGEST


class TestCyclicHom:
    def test_well_definedness_enforced(self):
        with pytest.raises(IllDefinedHom):
            # Z/2 -> Z/4 by 1 is not a homomorphism.
            CyclicHom.of([[1]], [2], [4])

    def test_apply(self):
        h = CyclicHom.of([[2]], [2], [4])
        assert h.apply((1,)) == (2,)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            CyclicHom.of([[1, 1]], [2], [2])

    def test_ill_defined_entry_is_named(self):
        # Row 0 is zero; in row 1 only entry 2 fails: 1 * 2 is not 0 mod 4.
        with pytest.raises(IllDefinedHom, match=r"entry \(1, 2\)"):
            CyclicHom(((0, 0, 0), (2, 2, 1)), (2, 2, 2), (2, 4))


def random_hom(rng, max_side=3, max_mod=6, max_cols=None, min_rows=1, zero_cols=False):
    """A random well-defined hom with 1..max_cols columns (default
    max_side) and min_rows..max_side rows; with zero_cols, each column is
    zero with probability 1/3, as a loop's column of the boundary map."""
    c = rng.randint(1, max_cols or max_side)
    r = rng.randint(min_rows, max_side)
    ns = [rng.randint(1, max_mod) for _ in range(c)]
    ms = [rng.randint(1, max_mod) for _ in range(r)]
    zero = [zero_cols and rng.randrange(3) == 0 for _ in range(c)]
    matrix = []
    for i in range(r):
        row = []
        for j in range(c):
            # force well-definedness: entry must be a multiple of m/gcd(m, n)
            step = ms[i] // gcd(ms[i], ns[j])
            row.append(0 if zero[j] else step * rng.randint(-3, 3))
        matrix.append(row)
    return CyclicHom.of(matrix, ns, ms)


class TestKernelSize:
    def test_zero_map(self):
        h = CyclicHom.of([[0, 0], [0, 0]], [6, 6], [6, 6])
        assert kernel_size_by_enumeration(h) == kernel_size_by_smith(h) == 36

    def test_loop_boundary(self):
        for l in (1, 2, 5):
            h = CyclicHom.of([[0]], [l], [l])
            assert kernel_size_by_enumeration(h) == kernel_size_by_smith(h) == l

    def test_parallel_edges(self):
        for r in range(2, 7):
            h = CyclicHom.of([[-1, -1], [1, 1]], [r, r], [r, r])
            assert kernel_size_by_enumeration(h) == kernel_size_by_smith(h) == r

    def test_paths_agree_on_random_homs(self):
        rng = random.Random(11)
        count = 0
        while count < 200:
            h = random_hom(rng)
            if h.domain_size > 10**4:
                continue
            count += 1
            assert kernel_size_by_enumeration(h) == kernel_size_by_smith(h)
        # Up to 4 x 6, the largest genus-3 boundary shape, with zero columns
        # as loops make and 0-row codomains.
        shapes = set()
        zero_columns = 0
        while count < 600:
            h = random_hom(rng, max_side=4, max_cols=6, min_rows=0, zero_cols=True)
            if h.domain_size > 10**4:
                continue
            count += 1
            shapes.add((len(h.codomain_moduli), len(h.domain_moduli)))
            zero_columns += any(not any(col) for col in zip(*h.matrix))
            assert kernel_size_by_enumeration(h) == kernel_size_by_smith(h)
        assert {(0, 1), (4, 6)} <= shapes
        assert zero_columns > 50

    def test_orbit_stabilizer(self):
        rng = random.Random(23)
        for _ in range(120):
            h = random_hom(rng)
            if h.domain_size > 2000:
                continue
            assert kernel_size_by_enumeration(h) * image_size_by_enumeration(h) == prod(
                h.domain_moduli
            )


class TestImageMembership:
    def test_zero_always_in_image(self):
        rng = random.Random(3)
        for _ in range(50):
            h = random_hom(rng)
            ok, witness = hom_image_contains(h, (0,) * len(h.codomain_moduli))
            assert ok
            assert h.apply(witness) == (0,) * len(h.codomain_moduli)

    def test_bridge_with_trivial_stabilizer(self):
        # domain Z/1 (stabilizer 1, r = 2): image is only 0
        h = CyclicHom.of([[0], [0]], [1], [2, 2])
        ok, _ = hom_image_contains(h, (1, 1))
        assert not ok

    def test_bridge_with_full_stabilizer(self):
        h = CyclicHom.of([[-1], [1]], [2], [2, 2])
        ok, witness = hom_image_contains(h, (1, 1))
        assert ok and h.apply(witness) == (1, 1)

    def test_agrees_with_enumeration(self):
        rng = random.Random(7)
        for _ in range(80):
            h = random_hom(rng)
            if h.domain_size > 10**4:
                continue
            image = set()
            for x in itertools.product(*(range(n) for n in h.domain_moduli)):
                image.add(h.apply(x))
            for _ in range(5):
                t = tuple(rng.randrange(m) for m in h.codomain_moduli)
                ok, witness = hom_image_contains(h, t)
                assert ok == (t in image)
                if ok:
                    assert h.apply(witness) == t

    def test_dimension_mismatch(self):
        h = CyclicHom.of([[1]], [2], [2])
        with pytest.raises(DimensionMismatch):
            hom_image_contains(h, (1, 0))


class TestSolveCongruence:
    @pytest.mark.parametrize(
        "a,b,n,expected",
        [
            (2, 0, 4, (0, 2)),
            (2, 1, 4, None),
            (3, 2, 5, (4, 5)),
            (0, 0, 7, (0, 1)),
            (0, 3, 7, None),
            (5, 5, 1, (0, 1)),
        ],
    )
    def test_cases(self, a, b, n, expected):
        assert solve_congruence(a, b, n) == expected

    @given(
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_against_enumeration(self, a, b, n):
        solutions = [x for x in range(n) if (a * x - b) % n == 0]
        result = solve_congruence(a, b, n)
        if not solutions:
            assert result is None
        else:
            x0, step = result
            assert solutions == sorted((x0 + k * step) % n for k in range(n // step))
