import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from trivector.errors import NotSkew, OddSize
from trivector.fields import GF, Q
from trivector.linalg import (Matrix, det_cofactor, is_semisimple,
                              minimal_polynomial, pfaffian, rank_and_kernel)
from trivector.polys import Poly, embed_map, extension_of


def test_rank_and_kernel_zero_and_identity():
    f7 = GF(7)
    rank, basis = rank_and_kernel(Matrix.zero(f7, 9, 9))
    assert rank == 0 and len(basis) == 9
    rank, basis = rank_and_kernel(Matrix.identity(f7, 9))
    assert rank == 9 and basis == []


def _random_skew(field, n, rng):
    m = Matrix.zero(field, n, n)
    for i in range(n):
        for j in range(i + 1, n):
            v = field.random(rng)
            m.rows[i][j] = v
            m.rows[j][i] = -v
    return m


def test_skew_rank_parity_small_exhaustive():
    # the parity theorem checked exhaustively on 4x4 over F_2 and sampled 6x6
    f2 = GF(2)
    pairs = list(itertools.combinations(range(4), 2))
    for bits in range(1 << len(pairs)):
        m = Matrix.zero(f2, 4, 4)
        for b, (i, j) in enumerate(pairs):
            if bits >> b & 1:
                m.rows[i][j] = f2.one
                m.rows[j][i] = f2.one   # -1 = 1
        assert m.rank() % 2 == 0
    rng = random.Random(0)
    for _ in range(50):
        assert _random_skew(GF(7), 6, rng).rank() % 2 == 0


def test_random_skew_even_rank_9x9():
    rng = random.Random(1)
    for _ in range(30):
        m = _random_skew(GF(7), 9, rng)
        rank, basis = rank_and_kernel(m)
        assert rank % 2 == 0
        assert rank + len(basis) == 9
        for v in basis:
            assert all(x.is_zero() for x in m.apply(v))


def test_kernel_basis_reduced_echelon():
    f5 = GF(5)
    m = Matrix(f5, [[1, 2, 3, 4], [2, 4, 6, 8]])
    rank, basis = rank_and_kernel(m)
    assert rank == 1 and len(basis) == 3
    red, piv = Matrix(f5, basis).rref()
    assert red.rows == basis


def test_rank_stable_under_field_embedding():
    rng = random.Random(2)
    f3 = GF(3)
    f9 = extension_of(f3, 2)
    emb = embed_map(f3, f9)
    for _ in range(20):
        m = Matrix(f3, [[f3.random(rng) for _ in range(6)] for _ in range(5)])
        m9 = Matrix(f9, [[emb(x) for x in row] for row in m.rows])
        assert m.rank() == m9.rank()


def test_pfaffian_base_cases():
    f7 = GF(7)
    a = f7.el(3)
    m = Matrix(f7, [[0, 3], [-3, 0]])
    assert pfaffian(m) == a
    block = Matrix(f7, [[0, 1, 0, 0], [-1, 0, 0, 0],
                        [0, 0, 0, 1], [0, 0, -1, 0]])
    assert pfaffian(block) == f7.one


def test_pfaffian_squares_to_determinant():
    rng = random.Random(3)
    for field in (GF(5), GF(2, 2), Q):
        for n in (2, 4, 6):
            for _ in range(8):
                m = _random_skew(field, n, rng)
                pf = pfaffian(m)
                assert pf * pf == det_cofactor(m)


def test_pfaffian_congruence_covariance():
    # pf(g^T M g) = det(g) pf(M)
    rng = random.Random(4)
    f5 = GF(5)
    for _ in range(10):
        m = _random_skew(f5, 6, rng)
        g = Matrix(f5, [[f5.random(rng) for _ in range(6)] for _ in range(6)])
        if not g.is_invertible():
            continue
        assert pfaffian(g.transpose() * m * g) == det_cofactor(g) * pfaffian(m)


def test_pfaffian_errors():
    f2 = GF(2)
    with pytest.raises(OddSize):
        pfaffian(Matrix.zero(f2, 3, 3))
    # in characteristic 2 a symmetric matrix with nonzero diagonal is not skew
    m = Matrix(f2, [[1, 1], [1, 0]])
    with pytest.raises(NotSkew):
        pfaffian(m)
    m = Matrix(GF(5), [[0, 1], [1, 0]])
    with pytest.raises(NotSkew):
        pfaffian(m)


def test_minimal_polynomial_and_semisimplicity():
    f7 = GF(7)
    assert is_semisimple(Matrix.identity(f7, 4))
    jordan = Matrix(f7, [[0, 1], [0, 0]])
    assert minimal_polynomial(jordan) == Poly(f7, [0, 0, 1])
    assert not is_semisimple(jordan)
    # diag(1,2) + Jordan block at 3: minimal polynomial (x-1)(x-2)(x-3)^2
    m = Matrix(f7, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 1], [0, 0, 0, 3]])
    mp = minimal_polynomial(m)
    expect = (Poly(f7, [-1, 1]) * Poly(f7, [-2, 1])
              * Poly(f7, [-3, 1]) * Poly(f7, [-3, 1]))
    assert mp == expect.monic()
    assert not is_semisimple(m)
    assert is_semisimple(Matrix(f7, [[1, 0], [0, 2]]))


def test_minimal_polynomial_annihilates():
    rng = random.Random(5)
    f5 = GF(5)
    for _ in range(15):
        m = Matrix(f5, [[f5.random(rng) for _ in range(4)] for _ in range(4)])
        mp = minimal_polynomial(m)
        acc = Matrix.zero(f5, 4, 4)
        power = Matrix.identity(f5, 4)
        for c in mp.coeffs:
            acc = acc + power.scale(c)
            power = power * m
        assert all(x.is_zero() for row in acc.rows for x in row)


# ---------------------------------------------------------------------------
# products against the textbook triple loop

_PRODUCT_FIELDS = (Q, GF(2), GF(7), GF(3, 2))


def _textbook_product(a_rows, b_rows):
    """Entry (i, j) is the sum over every k of a_ik b_kj, nothing skipped."""
    field = a_rows[0][0].field
    out = []
    for a_row in a_rows:
        row = []
        for j in range(len(b_rows[0])):
            acc = field.zero
            for k, a in enumerate(a_row):
                acc = acc + a * b_rows[k][j]
            row.append(acc)
        out.append(row)
    return out


@st.composite
def _sparse_matrix(draw, field, nrows, ncols):
    """Entries drawn at one of four densities, then whole rows and columns
    set to zero."""
    r = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from((0.0, 0.2, 0.6, 1.0)))
    rows = [[field.random(r) if r.random() < density else field.zero
             for _ in range(ncols)] for _ in range(nrows)]
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=nrows)):
        rows[i] = [field.zero] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in rows:
            row[j] = field.zero
    return Matrix(field, rows)


@st.composite
def _factors(draw):
    field = draw(st.sampled_from(_PRODUCT_FIELDS))
    r, k, c = (draw(st.integers(1, 9)) for _ in range(3))
    return draw(_sparse_matrix(field, r, k)), draw(_sparse_matrix(field, k, c))


def _dense(field, nrows, ncols, seed):
    r = random.Random(seed)
    return Matrix(field, [[field.random(r) for _ in range(ncols)]
                          for _ in range(nrows)])


@settings(max_examples=80, deadline=None)
@given(_factors())
@example((Matrix.zero(GF(7), 9, 9), _dense(GF(7), 9, 9, 1)))
@example((_dense(Q, 4, 9, 2), Matrix.zero(Q, 9, 3)))
@example((Matrix.identity(GF(3, 2), 9), _dense(GF(3, 2), 9, 9, 3)))
@example((_dense(GF(2), 5, 7, 4), Matrix.identity(GF(2), 7)))
def test_product_and_apply_match_the_textbook_loop(ab):
    a, b = ab
    prod = a * b
    assert (prod.nrows, prod.ncols) == (a.nrows, b.ncols)
    assert prod.rows == _textbook_product(a.rows, b.rows)
    for j in range(b.ncols):
        col = [[row[j]] for row in b.rows]
        assert a.apply([x for x, in col]) == [x for x, in
                                              _textbook_product(a.rows, col)]
    if all(x.is_zero() for row in a.rows for x in row):
        assert prod == Matrix.zero(a.field, a.nrows, b.ncols)
    if a == Matrix.identity(a.field, a.nrows):
        assert prod == b
    if b == Matrix.identity(b.field, b.nrows):
        assert prod == a
