import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trivector.fields import GF
from trivector.linalg import Matrix, kernel_matrix
from trivector.loci import _structure_tensor_codes, batch_eval
from trivector.polys import MultiPoly
from trivector.scan import MAX_KERNEL_PRIME, field_kernel
from trivector.stability import double_contract
from trivector.trivector import TRIPLES, Trivector, phi_at


def _codes(kern, values):
    return np.array(values, dtype=kern.dtype)


def test_prime_kernel_products_do_not_wrap_gf191():
    f = GF(191)
    kern = field_kernel(f)
    a = np.array([190, 190, 100], dtype=np.int16)
    assert kern.mul(a, a).tolist() == [1, 1, 100 * 100 % 191]
    assert kern.add(a, a).tolist() == [189, 189, 9]
    # x1 * x2 + 1 at (190, 190): 1 + 1
    mp = MultiPoly(f, 2, {(1, 1): f.one, (0, 0): f.one})
    assert batch_eval(kern, mp, np.array([[190, 190]], np.int16)).tolist() == [2]


def test_prime_kernel_codes_fit_gf40009():
    p = 40009
    f = GF(p)
    kern = field_kernel(f)
    assert np.iinfo(kern.dtype).max >= p - 1
    a = _codes(kern, [p - 1, p - 2])
    assert kern.mul(a, a).tolist() == [1, 4]
    assert kern.add(a, a).tolist() == [p - 2, p - 4]
    assert kern.sub(_codes(kern, [0, 0]), a).tolist() == [1, 2]
    mp = MultiPoly(f, 2, {(2, 1): f.el(3)})
    assert batch_eval(kern, mp, _codes(kern, [[p - 1, p - 1]])).tolist() \
        == [(3 * (p - 1) ** 3) % p]
    # 2a + (p - 2) b = 0 has the kernel line a = b
    assert kern.kernel_basis(_codes(kern, [[2, p - 2]])).tolist() == [[1, 1]]


def test_prime_kernel_refuses_unrepresentable_prime():
    with pytest.raises(ValueError):
        field_kernel(GF(65537))
    assert MAX_KERNEL_PRIME < 65537


@pytest.mark.parametrize("field", [GF(7), GF(191), GF(40009), GF(2, 2),
                                   GF(3, 2), GF(2, 4), GF(13, 2), GF(3, 5),
                                   GF(2, 8)], ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coded_ops_equal_object_ops(field, data):
    kern = field_kernel(field)
    q = field.order
    xs = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=20))
    ys = data.draw(st.lists(st.integers(0, q - 1), min_size=len(xs),
                            max_size=len(xs)))
    a, b = _codes(kern, xs), _codes(kern, ys)
    ea = [field.from_int(v) for v in xs]
    eb = [field.from_int(v) for v in ys]
    assert kern.add(a, b).tolist() == [field.to_int(x + y) for x, y in zip(ea, eb)]
    assert kern.sub(a, b).tolist() == [field.to_int(x - y) for x, y in zip(ea, eb)]
    assert kern.mul(a, b).tolist() == [field.to_int(x * y) for x, y in zip(ea, eb)]


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(251), GF(2, 2), GF(3, 2),
                                   GF(2, 5), GF(5, 2), GF(13, 2), GF(3, 5),
                                   GF(2, 8)], ids=repr)
def test_coded_ops_equal_object_ops_on_all_pairs(field):
    # table kernels read the field's own code tables: one encoding, codes
    # equal to the interned elements' to_int, no addition table in char 2
    kern = field_kernel(field)
    q = field.order
    els = list(field.elements())
    assert [kern.encode(x) for x in els] == list(range(q))
    assert all(kern.decode(c) is x for c, x in enumerate(els))
    if kern.table is not None:
        add, mul, neg, inv = field.code_tables()
        assert np.shares_memory(kern.table[1], mul)
        assert (kern.table[0] is None) == (field.p == 2)
    a = np.repeat(np.arange(q), q).astype(kern.dtype)
    b = np.tile(np.arange(q), q).astype(kern.dtype)
    pairs = [(x, y) for x in els for y in els]
    assert kern.add(a, b).tolist() == [field.to_int(x + y) for x, y in pairs]
    assert kern.sub(a, b).tolist() == [field.to_int(x - y) for x, y in pairs]
    assert kern.mul(a, b).tolist() == [field.to_int(x * y) for x, y in pairs]
    codes = np.arange(q).astype(kern.dtype)
    assert kern.neg(codes).tolist() == [field.to_int(-x) for x in els]
    assert kern.inv(codes[1:]).tolist() == [field.to_int(x.inv())
                                            for x in els[1:]]


@pytest.mark.parametrize("field", [GF(3), GF(7), GF(2, 2), GF(3, 2),
                                   GF(257)], ids=repr)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_coded_matmul_equals_object_product(field, data):
    # GF(257) takes the widened prime path: (p - 1)^2 overflows int16
    kern = field_kernel(field)
    stack = data.draw(st.sampled_from([(), (1,), (3,)]))
    r, k, c = (data.draw(st.integers(1, 5)) for _ in range(3))

    def draw(shape):
        n = int(np.prod(shape))
        values = data.draw(st.lists(st.integers(0, field.order - 1),
                                    min_size=n, max_size=n))
        return np.array(values, dtype=kern.dtype).reshape(shape)

    a, b = draw(stack + (r, k)), draw(stack + (k, c))
    prod = kern.matmul(a, b)
    assert prod.dtype == kern.dtype and prod.shape == stack + (r, c)

    def obj(m):
        return Matrix(field, [[field.from_int(int(v)) for v in row]
                              for row in m])

    for i in np.ndindex(*stack):
        want = obj(a[i]) * obj(b[i])
        assert prod[i].tolist() == [[field.to_int(x) for x in row]
                                    for row in want.rows]


def _skew_of_rank(field, rank, lower, upper):
    """G^T J G for the rank-`rank` standard symplectic J and the invertible
    G = L U (unit lower L, upper U with nonzero diagonal from `upper`)."""
    zero, one = field.zero, field.one
    j = [[zero] * 9 for _ in range(9)]
    for i in range(0, rank, 2):
        j[i][i + 1], j[i + 1][i] = one, -one
    lo = Matrix(field, [[one if a == b else (lower[a][b] if b < a else zero)
                         for b in range(9)] for a in range(9)])
    up = Matrix(field, [[upper[a][b] if b >= a else zero for b in range(9)]
                        for a in range(9)])
    g = lo * up
    return g.transpose() * Matrix(field, j) * g


@pytest.mark.parametrize("field", [GF(3), GF(2, 2), GF(7), GF(3, 2)],
                         ids=repr)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_batched_rref_and_kernel_match_object_route(field, data):
    kern = field_kernel(field)
    q = field.order
    codes = st.integers(0, q - 1)
    mats = [Matrix(field, [[field.from_int(v) for v in row] for row in
                           data.draw(st.lists(st.lists(codes, min_size=9,
                                                       max_size=9),
                                              min_size=9, max_size=9))])]
    for rank in (4, 6, 8):
        lower = data.draw(st.lists(st.lists(codes, min_size=9, max_size=9),
                                   min_size=9, max_size=9))
        upper = data.draw(st.lists(st.lists(st.integers(1, q - 1),
                                            min_size=9, max_size=9),
                                   min_size=9, max_size=9))
        lower = [[field.from_int(v) for v in row] for row in lower]
        upper = [[field.from_int(v) for v in row] for row in upper]
        mats.append(_skew_of_rank(field, rank, lower, upper))
    stack = np.array([[[field.to_int(x) for x in row] for row in m.rows]
                      for m in mats], dtype=kern.dtype)
    ranks, pivots, red = kern.batched_rref(stack)
    kranks, basis = kern.batched_kernel_basis(stack)
    assert np.array_equal(kern.batched_rank(stack.copy()), ranks)
    assert np.array_equal(kranks, ranks)
    assert ranks[1:].tolist() == [4, 6, 8]
    for k, m in enumerate(mats):
        ored, opiv = m.rref()
        r = len(opiv)
        assert ranks[k] == r
        assert pivots[k, :r].tolist() == opiv and np.all(pivots[k, r:] == -1)
        assert red[k].tolist() == [[field.to_int(x) for x in row]
                                   for row in ored.rows]
        okern = [[field.to_int(x) for x in row] for row in kernel_matrix(m).rows]
        assert kern.rref(basis[k, :9 - r])[2].tolist() == okern
        assert not basis[k, 9 - r:].any()
        assert kern.kernel_basis(stack[k]).tolist() == okern


@pytest.mark.parametrize("field", [GF(3), GF(2, 2), GF(7), GF(3, 2)],
                         ids=repr)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_batched_double_contraction_matches_object_route(field, data):
    kern = field_kernel(field)
    q = field.order
    vals = data.draw(st.lists(st.integers(0, q - 1), min_size=84, max_size=84))
    t = Trivector(field, {trip: field.from_int(v)
                          for trip, v in zip(TRIPLES, vals) if v})
    vec = st.lists(st.integers(0, q - 1), min_size=9, max_size=9)
    alpha = np.array(data.draw(st.lists(vec, min_size=1, max_size=6)),
                     dtype=kern.dtype)
    beta = np.array(data.draw(st.lists(vec, min_size=alpha.shape[0],
                                       max_size=alpha.shape[0])),
                    dtype=kern.dtype)
    got = kern.double_contract(alpha, beta, _structure_tensor_codes(t, kern))
    for a, b, row in zip(alpha, beta, got):
        ref = double_contract(t, [field.from_int(int(v)) for v in a],
                              [field.from_int(int(v)) for v in b])
        assert row.tolist() == [field.to_int(-x) for x in ref]


@pytest.mark.parametrize("field", [GF(7), GF(191), GF(40009), GF(3, 2)],
                         ids=repr)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_build_skew_matches_phi_at_in_kernel_dtype(field, data):
    kern = field_kernel(field)
    q = field.order
    vals = data.draw(st.lists(st.integers(0, q - 1), min_size=84, max_size=84))
    t = Trivector(field, {trip: field.from_int(v)
                          for trip, v in zip(TRIPLES, vals) if v})
    vec = st.lists(st.integers(0, q - 1), min_size=9, max_size=9)
    pts = np.array(data.draw(st.lists(vec, min_size=1, max_size=6)),
                   dtype=kern.dtype)
    mats = kern.build_skew(pts, _structure_tensor_codes(t, kern))
    assert mats.dtype == kern.dtype
    ranks = kern.batched_rank(mats.copy())
    for x, m, r in zip(pts, mats, ranks):
        ref = phi_at(t, [field.from_int(int(v)) for v in x])
        assert m.tolist() == [[field.to_int(v) for v in row]
                              for row in ref.rows]
        assert r == ref.rank()
