import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from trivector.fields import (GF, MAX_TABLE_ORDER, Q, default_modulus,
                              is_prime, parse_field)

M61 = 2 ** 61 - 1                     # the largest prime GF accepts
ABOVE_M61 = 2 ** 61 + 15              # the smallest prime past that limit

# every finite field of order <= MAX_TABLE_ORDER that the package and its
# tests build (extension_of reaches GF(2^d) for d <= 8 and GF(3^d) for d <= 5)
INTERNED = ([GF(p) for p in (2, 3, 5, 7, 11, 13, 191, 251)]
            + [GF(2, k) for k in range(2, 9)]
            + [GF(3, k) for k in range(2, 6)]
            + [GF(5, 2), GF(7, 2), GF(13, 2)])
# past the limit: today's allocating arithmetic
UNINTERNED = [GF(2, 9), GF(3, 6), GF(65537), GF(M61)]


def test_primality():
    assert is_prime(2) and is_prime(3) and is_prime(2 ** 31 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2 ** 32)


def test_parse_large_prime_orders():
    # a prime order is tested for primality before any root is taken, so
    # neither spec trial-divides up to its square root
    t0 = time.perf_counter()
    assert parse_field("GF(%d)" % M61) is GF(M61)
    with pytest.raises(ValueError, match="too large"):
        parse_field("GF(%d)" % ABOVE_M61)
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ValueError, match="not a prime power"):
        parse_field("GF(%d)" % (M61 * (2 ** 31 - 1)))
    assert parse_field("GF(%d)" % (2 ** 31 - 1) ** 2).order == (2 ** 31 - 1) ** 2
    for q, pk in ((64, (2, 6)), (243, (3, 5)), (729, (3, 6)), (1024, (2, 10)),
                  (49, (7, 2))):
        field = parse_field("GF(%d)" % q)
        assert (field.p, field.k) == pk


def test_parse_grammar():
    assert parse_field("Q") is Q
    assert parse_field("GF(7)").p == 7
    f4 = parse_field("GF(2^2)")
    assert f4.order == 4 and f4.modulus == (1, 1, 1)
    assert parse_field("GF(4)") == f4
    assert parse_field("GF(9)").order == 9
    f8 = parse_field("GF(2^3;mod=1,1,0,1)")
    assert f8.modulus == (1, 1, 0, 1)
    with pytest.raises(ValueError):
        parse_field("GF(6)")
    with pytest.raises(ValueError):
        parse_field("GF(2^2;mod=1,0,1)")   # x^2+1 is reducible over F_2
    with pytest.raises(ValueError):
        parse_field("GF(4^2)")             # base must be prime with a caret


def test_default_moduli_deterministic():
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)
    assert default_modulus(3, 2) == (1, 0, 1)
    assert default_modulus(3, 3) == (1, 2, 0, 1)


@pytest.mark.parametrize("spec", ["GF(5)", "GF(2^4)", "GF(3^2)", "Q"])
def test_canonical_representation(spec):
    # a + b - b == a bit-exactly
    field = parse_field(spec)
    rng = random.Random(1)
    for _ in range(10000):
        a, b = field.random(rng), field.random(rng)
        c = a + b - b
        assert c == a
        assert hash(c) == hash(a)


@pytest.mark.parametrize("spec", ["GF(7)", "GF(2^2)", "GF(3^2)", "GF(2^4)"])
def test_inverse_and_power(spec):
    field = parse_field(spec)
    for a in field.nonzero_elements():
        assert a * a.inv() == field.one
        assert a ** (field.order - 1) == field.one


def test_serialization_round_trip():
    rng = random.Random(2)
    for spec in ("Q", "GF(11)", "GF(2^3)"):
        field = parse_field(spec)
        for _ in range(50):
            a = field.random(rng)
            assert field.from_str(field.to_str(a)) == a
        assert parse_field(field.spec_str()) == field


def test_extension_arithmetic_against_modulus():
    f9 = GF(3, 2)
    g = f9.gen
    # modulus x^2 + 1: g^2 = -1
    assert g * g == f9.el(-1)
    f16 = GF(2, 4)
    g = f16.gen
    # modulus x^4 + x + 1: g^4 = g + 1
    assert g ** 4 == g + f16.one


def test_element_enumeration_matches_order():
    for field in (GF(5), GF(2, 2), GF(3, 2)):
        els = list(field.elements())
        assert len(els) == field.order
        assert len(set(els)) == field.order
        for i, a in enumerate(els):
            assert field.to_int(a) == i
            assert field.from_int(i) == a


def test_rationals_exact():
    a = Q.el(1) / Q.el(3)
    b = Q.el(1) / Q.el(6)
    assert (a + b).val.numerator == 1 and (a + b).val.denominator == 2


def _poly_route(field, a, b):
    """(a + b, a - b, a * b) by the polynomial route: residues mod p for a
    prime field, coefficient vectors and _mulvec for an extension."""
    p = field.p
    if field.k == 1:
        return ((a.val + b.val) % p, (a.val - b.val) % p, a.val * b.val % p)
    return (tuple((x + y) % p for x, y in zip(a.val, b.val)),
            tuple((x - y) % p for x, y in zip(a.val, b.val)),
            field._mulvec(a.val, b.val))


@pytest.mark.parametrize("field", INTERNED, ids=repr)
def test_interned_ops_equal_polynomial_route(field):
    assert field.order <= MAX_TABLE_ORDER
    els = list(field.elements())
    for a in els:
        for b in els:
            s, d, m = _poly_route(field, a, b)
            assert ((a + b).val, (a - b).val, (a * b).val) == (s, d, m)
        if a:
            inv = (pow(a.val, -1, field.p) if field.k == 1
                   else field._invvec(a.val))
            assert a.inv().val == inv
        assert (-a).val == _poly_route(field, field.zero, a)[1]


@pytest.mark.parametrize("field", INTERNED, ids=repr)
def test_interned_ops_return_interned_elements(field):
    rng = random.Random(field.order)
    code = field.to_int
    for _ in range(200):
        a, b = field.random(rng), field.random(rng)
        n = rng.randrange(-2 * field.order, 2 * field.order)
        assert a is field.from_int(code(a))
        assert a * b is field.from_int(code(a * b))
        assert a + b is field.from_int(code(a + b))
        assert a - b is field.from_int(code(a - b))
        assert -a is field.from_int(code(-a))
        assert field.from_str(field.to_str(a)) is a
        if a:
            assert a.inv() is field.from_int(code(a.inv()))
            assert a ** n is field.from_int(code(a ** n))
    assert field.el(1) is field.one and field.el(0) is field.zero
    assert list(field.elements()) == [field.from_int(v)
                                      for v in range(field.order)]


@pytest.mark.parametrize("field", INTERNED + UNINTERNED, ids=repr)
def test_inverse_of_zero_raises(field):
    with pytest.raises(ZeroDivisionError):
        field.zero.inv()
    with pytest.raises(ZeroDivisionError):
        field.zero ** -1
    with pytest.raises(ZeroDivisionError):
        field.one / field.zero
    assert field.zero ** 0 == field.one and field.zero ** 3 == field.zero


@pytest.mark.parametrize("field", INTERNED + UNINTERNED, ids=repr)
def test_power_matches_repeated_products(field):
    rng = random.Random(7)
    for _ in range(20):
        a = field.random(rng)
        acc = field.one
        for n in range(12):
            assert a ** n == acc
            if a:
                assert a ** -n == acc.inv()
            acc = acc * a


AXIOM_FIELDS = [GF(2), GF(3), GF(7), GF(251), GF(2, 2), GF(3, 2), GF(2, 8),
                GF(3, 5)] + UNINTERNED


@pytest.mark.parametrize("field", AXIOM_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_axioms(field, data):
    el = st.integers(0, field.order - 1).map(field.from_int)
    a, b, c = data.draw(el), data.draw(el), data.draw(el)
    zero, one = field.zero, field.one
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - b == a + (-b)
    assert (a - b) + b == a
    assert hash(a + b) == hash(b + a)
    if a:
        assert a * a.inv() == one and (b / a) * a == b


@pytest.mark.parametrize("field", UNINTERNED, ids=repr)
def test_large_fields_keep_allocating_arithmetic(field):
    # past MAX_TABLE_ORDER nothing is interned: no code tables, fresh objects
    assert field.order > MAX_TABLE_ORDER
    with pytest.raises(ValueError):
        field.code_tables()
    rng = random.Random(16)
    a, b = field.random(rng), field.random(rng)
    for x, y in ((a, b), (b, a), (a, a)):
        s, d, m = _poly_route(field, x, y)
        assert ((x + y).val, (x - y).val, (x * y).val) == (s, d, m)
    assert field.from_int(3) is not field.from_int(3)
    assert field.from_int(3) == field.from_int(3)


# draws of random(random.Random(16)) and a few operations on them, pinned
# as literals: perfbench builds its inputs with random(rng), and the fields
# past the limit keep their allocating arithmetic
PINNED_DRAWS = {
    "GF(5)": ["2", "3", "3", "2", "3", "1"],
    "GF(2^2)": ["1,1", "1,1", "1,0", "1,0", "1,1", "0,0"],
    "GF(3^2)": ["1,1", "1,1", "1,0", "1,0", "1,2", "2,1"],
    "GF(2^8)": ["1,1,1,1,1,0,1,0", "1,1,0,0,0,1,1,1", "0,1,0,0,1,0,0,0",
                "1,1,1,0,1,1,1,1", "0,1,1,1,0,1,0,1", "0,0,1,0,1,0,1,1"],
    "GF(3^5)": ["1,1,1,1,1", "0,1,0,1,2", "2,1,0,2,0", "0,1,1,1,2",
                "0,2,2,1,0", "0,2,1,0,0"],
    "GF(2^9)": ["1,1,1,1,1,0,1,0,1", "1,0,0,0,1,1,1,0,1", "0,0,1,0,0,0,1,1,1",
                "0,1,1,1,1,0,1,1,1", "0,1,0,1,0,0,1,0,1", "0,1,1,1,1,1,0,0,1"],
    "GF(3^6)": ["1,1,1,1,1,0", "1,0,1,2,2,1", "0,2,0,0,1,1", "1,2,0,2,2,1",
                "0,0,2,1,0,0", "2,2,2,0,1,1"],
    "GF(65537)": ["47385", "61501", "62977", "37346", "54650", "29706"],
    "GF(%d)" % M61: ["1081953583979348395", "657011775081859060",
                     "522607061112809562", "13497452042571933",
                     "1969504963836380628", "1639457739184761014"],
    "Q": ["1/4", "6/5", "1", "5", "4/5", "-1/2"],
}

# a + b, a - b, a * b, c^-1, -d, a^5, b^-3, a / c for the first four draws
PINNED_OPS = {
    "GF(2^9)": ["0,1,1,1,0,1,0,0,0", "0,1,1,1,0,1,0,0,0", "0,1,0,0,0,1,0,0,0",
                "1,0,0,1,0,1,1,0,0", "0,1,1,1,1,0,1,1,1", "1,1,1,0,1,1,1,0,0",
                "1,1,0,1,1,1,0,1,0", "0,1,0,1,0,0,1,1,1"],
    "GF(3^6)": ["2,1,2,0,0,1", "0,1,0,2,2,2", "1,0,0,2,2,0", "2,2,2,1,1,0",
                "2,1,0,1,1,2", "0,2,2,2,1,0", "1,2,0,2,0,1", "0,2,2,0,2,0"],
    "GF(65537)": ["43349", "51421", "56643", "13133", "28191", "3156", "1936",
                  "33390"],
    "GF(%d)" % M61: ["1738965359061207455", "424941808897489335",
                     "462452745873193603", "1867005557240467728",
                     "2292345557171122018", "102769526434430038",
                     "1010826655669477659", "194243155894731184"],
}


@pytest.mark.parametrize("spec", sorted(PINNED_DRAWS))
def test_random_draws_and_large_field_ops_pinned(spec):
    field = parse_field(spec)
    rng = random.Random(16)
    xs = [field.random(rng) for _ in range(6)]
    assert [field.to_str(x) for x in xs] == PINNED_DRAWS[spec]
    if spec in PINNED_OPS:
        a, b, c, d = xs[:4]
        got = (a + b, a - b, a * b, c.inv(), -d, a ** 5, b ** -3, a / c)
        assert [field.to_str(x) for x in got] == PINNED_OPS[spec]
