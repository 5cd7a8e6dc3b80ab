import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trivector.fields import GF
from trivector.loci import batch_eval
from trivector.polys import MultiPoly
from trivector.scan import MAX_KERNEL_PRIME, field_kernel


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
                                   GF(3, 2), GF(2, 4)], ids=repr)
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
