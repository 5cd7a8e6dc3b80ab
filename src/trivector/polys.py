"""Univariate and sparse multivariate polynomials over an exact field.

Univariate polynomials are dense coefficient lists (low degree first);
the multivariate type maps exponent tuples to nonzero coefficients.
"""

from __future__ import annotations

import random

from .errors import UnsupportedField
from .fields import GF, Field, PrimeField, ExtensionField, RationalField

__all__ = ["Poly", "MultiPoly", "extension_of", "embed_map", "roots_in_field"]

ROOT_BRUTE_LIMIT = 1 << 17


class Poly:
    """Dense univariate polynomial; coeffs[i] is the coefficient of x^i."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = [field.el(c) if isinstance(c, int) else c for c in coeffs]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.field = field
        self.coeffs = coeffs

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    @property
    def deg(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        return self.coeffs[-1]

    def monic(self):
        if self.is_zero():
            return self
        inv = self.lc().inv()
        return Poly(self.field, [c * inv for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = self.coeffs + [z] * (n - len(self.coeffs))
        b = other.coeffs + [z] * (n - len(other.coeffs))
        return Poly(self.field, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.field, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [])
        z = self.field.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db, lead_inv = other.deg, other.lc().inv()
        z = self.field.zero
        q = [z] * max(0, len(rem) - db)
        for d in range(len(rem) - 1, db - 1, -1):
            c = rem[d] * lead_inv
            if c.is_zero():
                continue
            q[d - db] = c
            for j in range(db + 1):
                rem[d - db + j] = rem[d - db + j] - c * other.coeffs[j]
        return Poly(self.field, q), Poly(self.field, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __call__(self, a):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def derivative(self):
        return Poly(self.field,
                    [self.coeffs[i] * self.field.el(i)
                     for i in range(1, len(self.coeffs))])

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def powmod(self, n: int, mod: "Poly") -> "Poly":
        result = Poly(self.field, [self.field.one])
        base = self % mod
        while n:
            if n & 1:
                result = result * base % mod
            base = base * base % mod
            n >>= 1
        return result

    def is_squarefree(self) -> bool:
        # valid over perfect fields, which covers everything we construct
        d = self.derivative()
        if d.is_zero():
            return self.deg <= 0
        return self.gcd(d).deg == 0

    def __repr__(self):
        if self.is_zero():
            return "0"
        return " + ".join("(%r)*x^%d" % (c, i)
                          for i, c in enumerate(self.coeffs) if not c.is_zero())


def _frobenius_image(f: Poly, q: int) -> Poly:
    """x^q mod f, by square and multiply."""
    return Poly.x(f.field).powmod(q, f)


def roots_in_field(f: Poly, rng=None):
    """All roots of f in its coefficient field, each listed once."""
    field = f.field
    if isinstance(field, RationalField):
        raise UnsupportedField("roots_in_field needs a finite field")
    if f.is_zero():
        raise ValueError("zero polynomial has every root")
    if f.deg == 0:
        return []
    q = field.order
    # product of linear factors
    xq = _frobenius_image(f, q)
    lin = f.gcd(xq - Poly.x(field))
    if lin.deg <= 0:
        return []
    if q <= ROOT_BRUTE_LIMIT and q <= 64 * lin.deg * lin.deg + 64:
        return [a for a in field.elements() if lin(a).is_zero()]
    if rng is None:
        rng = random.Random(12345 + lin.deg)
    roots = []
    _split_linear(lin, rng, roots)
    roots.sort(key=field.to_int)
    return roots


def _split_linear(g: Poly, rng, out):
    """Cantor-Zassenhaus splitting of a product of distinct linear factors."""
    field = g.field
    if g.deg == 1:
        out.append(-(g.coeffs[0] / g.coeffs[1]))
        return
    q = field.order
    while True:
        h = Poly(field, [field.random(rng) for _ in range(2)] + [field.one])
        if field.char == 2:
            # trace map sum h^(2^i)
            m = q.bit_length() - 1
            t = h % g
            acc, cur = t, t
            for _ in range(m - 1):
                cur = cur * cur % g
                acc = acc + cur
            d = g.gcd(acc)
        else:
            d = g.gcd(h.powmod((q - 1) // 2, g) - Poly(field, [field.one]))
        if 0 < d.deg < g.deg:
            _split_linear(d, rng, out)
            _split_linear(g // d, rng, out)
            return


def extension_of(field: Field, d: int) -> Field:
    """The degree-d extension of a finite field, as GF(p^(k*d))."""
    if d == 1:
        return field
    if isinstance(field, PrimeField):
        return GF(field.p, d)
    if isinstance(field, ExtensionField):
        return GF(field.p, field.k * d)
    raise ValueError("extensions only defined over finite fields")


_embed_cache: dict = {}


def embed_map(small: Field, big: Field):
    """Field embedding small -> big (deterministic: smallest-encoded root)."""
    if small == big:
        return lambda a: a
    key = (small, big)
    if key in _embed_cache:
        return _embed_cache[key]
    if isinstance(small, PrimeField):
        if big.char != small.p:
            raise ValueError("characteristic mismatch")
        fn = lambda a: big.el(a.val)
        _embed_cache[key] = fn
        return fn
    if not isinstance(small, ExtensionField) or big.char != small.p:
        raise ValueError("no embedding %r -> %r" % (small, big))
    if getattr(big, "k", 1) % small.k != 0:
        raise ValueError("degree %d does not divide %d" % (small.k, big.k))
    modulus = Poly(big, [int(c) for c in small.modulus])
    roots = roots_in_field(modulus)
    if not roots:
        raise ValueError("modulus has no root in %r" % big)
    g = roots[0]  # roots_in_field sorts; smallest encoding is canonical
    powers = [big.one]
    for _ in range(small.k - 1):
        powers.append(powers[-1] * g)

    def fn(a):
        acc = big.zero
        for c, gp in zip(a.val, powers):
            if c:
                acc = acc + big.el(c) * gp
        return acc

    _embed_cache[key] = fn
    return fn


def element_degree(a, base: Field) -> int:
    """Degree over `base` of an element of an extension of it."""
    field = a.field
    if field == base:
        return 1
    qbase = base.order
    d = 1
    b = a
    while True:
        b = b ** qbase
        if b == a:
            return d
        d += 1
        if d > 64:
            raise RuntimeError("element degree runaway")


class MultiPoly:
    """Sparse multivariate polynomial: exponent tuple -> nonzero coefficient."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        for e, c in (terms or {}).items():
            c = field.el(c) if isinstance(c, int) else c
            if not c.is_zero():
                if len(e) != nvars:
                    raise ValueError("exponent vector has wrong length")
                clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def variable(cls, field, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(field, nvars, {tuple(e): field.one})

    @classmethod
    def constant(cls, field, nvars, c):
        return cls(field, nvars, {(0,) * nvars: c})

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(self.field, self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.field, self.nvars,
                         {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            other = self.field.el(other) if isinstance(other, int) else other
            return MultiPoly(self.field, self.nvars,
                             {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                out[e] = s
        return MultiPoly(self.field, self.nvars, out)

    def __call__(self, point):
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        acc = self.field.zero
        for e, c in self.terms.items():
            t = c
            for x, k in zip(point, e):
                for _ in range(k):
                    t = t * x
            acc = acc + t
        return acc

    def derivative(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * self.field.el(e[i])
        return MultiPoly(self.field, self.nvars, out)

    def map_coeffs(self, target_field, fn):
        return MultiPoly(target_field, self.nvars,
                         {e: fn(c) for e, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            mono = "*".join("x%d^%d" % (i, k) for i, k in enumerate(e) if k)
            parts.append("(%r)%s" % (self.terms[e], "*" + mono if mono else ""))
        return " + ".join(parts)
