import random

import pytest

from trivector.errors import UnsupportedField
from trivector.fields import GF, Q
from trivector.polys import (MultiPoly, Poly, element_degree, embed_map,
                             extension_of, roots_in_field)


def test_poly_divmod_and_gcd():
    f7 = GF(7)
    f = Poly(f7, [1, 0, 1]) * Poly(f7, [2, 1])     # (x^2+1)(x+2)
    g = Poly(f7, [2, 1]) * Poly(f7, [3, 1])
    q, r = divmod(f, Poly(f7, [2, 1]))
    assert r.is_zero() and q == Poly(f7, [1, 0, 1])
    assert f.gcd(g) == Poly(f7, [2, 1])


def test_roots_brute_oracle():
    rng = random.Random(0)
    for field in (GF(7), GF(2, 2), GF(3, 2)):
        for _ in range(20):
            f = Poly(field, [field.random(rng) for _ in range(5)])
            if f.is_zero():
                continue
            got = set(roots_in_field(f))
            brute = {a for a in field.elements() if f(a).is_zero()}
            assert got == brute


def test_roots_large_field_splitting():
    f256 = GF(2, 8)
    # (x - a)(x - b) for distinct a, b
    a, b = f256.from_int(77), f256.from_int(200)
    f = Poly(f256, [a * b, a + b, f256.one])
    assert set(roots_in_field(f)) == {a, b}


def test_roots_over_q_unsupported():
    with pytest.raises(UnsupportedField):
        roots_in_field(Poly(Q, [Q.el(-1), Q.el(0), Q.el(1)]))


def test_multipoly_basics():
    f3 = GF(3)
    x = MultiPoly.variable(f3, 2, 0)
    z = MultiPoly.variable(f3, 2, 1)
    f = x * x + z * z * z + MultiPoly.constant(f3, 2, 2)
    assert f((f3.el(1), f3.el(1))) == f3.el(1 + 1 + 2)
    assert f.derivative(0) == x * 2
    assert f.degree() == 3


def test_embedding_and_degree():
    f2, f4, f16 = GF(2), GF(2, 2), GF(2, 4)
    emb24 = embed_map(f2, f4)
    assert emb24(f2.one) == f4.one
    emb416 = embed_map(f4, f16)
    g = f4.gen
    img = emb416(g)
    assert img * img + img + f16.one == f16.zero   # satisfies x^2+x+1
    assert element_degree(img, f2) == 2
    assert element_degree(img, f4) == 1
    assert extension_of(f4, 2) is f16


def test_embedding_is_homomorphism():
    rng = random.Random(9)
    f9, f81 = GF(3, 2), GF(3, 4)
    emb = embed_map(f9, f81)
    for _ in range(40):
        a, b = f9.random(rng), f9.random(rng)
        assert emb(a * b) == emb(a) * emb(b)
        assert emb(a + b) == emb(a) + emb(b)
