"""Exact field arithmetic: rationals, prime fields, and their extensions.

Every element is stored in a canonical form (reduced fraction, least
nonnegative residue, reduced coefficient vector), so value equality and
representation equality coincide.  A finite field of order <= 256 holds each
of its elements as one interned object, and its arithmetic is table lookup.
No floating point anywhere.
"""

from __future__ import annotations

import itertools
import operator
import re
from fractions import Fraction

import numpy as np

__all__ = [
    "Field", "RationalField", "PrimeField", "ExtensionField",
    "FieldElement", "Q", "GF", "parse_field", "is_prime",
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# finite fields up to this order intern their elements and keep q x q
# code tables of + and * (shared with scan.FieldKernel)
MAX_TABLE_ORDER = 256


def is_prime(n: int) -> bool:
    """Miller-Rabin with a witness set that is deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldElement:
    """Base class; concrete elements live in exactly one field.

    A finite field of order <= MAX_TABLE_ORDER keeps its q elements interned
    (one object per element, see _intern_elements): each carries its rows of
    sums and products indexed by code, so +, -, *, negation, inverse and **
    are lookups that return an existing element.  The class defaults below
    (None) select the allocating arithmetic of Q and of the larger fields."""

    __slots__ = ("field",)
    _add = _mul = _neg = _inv = _log = None

    def __bool__(self):
        return not self.is_zero()

    def __sub__(self, other):
        row = self._add
        if row is not None:
            return row[other._neg.code]
        return self + (-other)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, n: int):
        lg = self._log
        if lg is not None:
            if lg >= 0:
                exp = self.field._exp
                return exp[lg * n % len(exp)]
            if n < 0:
                raise ZeroDivisionError("inverse of 0 in %r" % self.field)
            return self if n else self.field.one
        if n < 0:
            return self.inv() ** (-n)
        result, base = self.field.one, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


class QElement(FieldElement):
    __slots__ = ("val",)

    def __init__(self, field, val: Fraction):
        self.field = field
        self.val = val

    def __add__(self, other):
        return QElement(self.field, self.val + other.val)

    def __mul__(self, other):
        return QElement(self.field, self.val * other.val)

    def __neg__(self):
        return QElement(self.field, -self.val)

    def inv(self):
        if not self.val:
            raise ZeroDivisionError("inverse of 0 in Q")
        return QElement(self.field, 1 / self.val)

    def is_zero(self):
        return self.val == 0

    def __eq__(self, other):
        return isinstance(other, QElement) and self.val == other.val

    def __hash__(self):
        return hash(("Q", self.val))

    def __repr__(self):
        return str(self.val)


class PFElement(FieldElement):
    """Element of GF(p): its least nonnegative residue, which is its code."""

    __slots__ = ("val",)

    def __init__(self, field, val: int):
        self.field = field
        self.val = val

    def __add__(self, other):
        row = self._add
        if row is not None:
            return row[other.val]
        p = self.field.p
        s = self.val + other.val
        if s >= p:
            s -= p
        return PFElement(self.field, s)

    def __mul__(self, other):
        row = self._mul
        if row is not None:
            return row[other.val]
        return PFElement(self.field, self.val * other.val % self.field.p)

    def __neg__(self):
        n = self._neg
        if n is not None:
            return n
        return PFElement(self.field, -self.val % self.field.p)

    def inv(self):
        r = self._inv
        if r is not None:
            return r
        if self.val == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.field.p)
        return PFElement(self.field, pow(self.val, -1, self.field.p))

    def is_zero(self):
        return self.val == 0

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PFElement) and self.val == other.val
            and self.field.p == other.field.p)

    def __hash__(self):
        return hash((self.field.p, self.val))

    def __repr__(self):
        return str(self.val)


class _PFCode(PFElement):
    """An interned element of a prime field of order <= MAX_TABLE_ORDER."""

    __slots__ = ("code", "_add", "_mul", "_neg", "_inv", "_log")

    def __init__(self, field, code: int):
        super().__init__(field, code)
        self.code = code


class ExtElement(FieldElement):
    """Element of GF(p^k): coefficient tuple (c0, ..., c_{k-1}), low degree first."""

    __slots__ = ("val",)

    def __init__(self, field, val: tuple):
        self.field = field
        self.val = val

    @property
    def code(self):
        """The base-p integer with digits c0 (lowest), ..., c_{k-1}."""
        return _vec_code(self.val, self.field.p)

    def __add__(self, other):
        row = self._add
        if row is not None:
            return row[other.code]
        p = self.field.p
        return ExtElement(self.field,
                          tuple((a + b) % p for a, b in zip(self.val, other.val)))

    def __neg__(self):
        n = self._neg
        if n is not None:
            return n
        p = self.field.p
        return ExtElement(self.field, tuple(-a % p for a in self.val))

    def __mul__(self, other):
        row = self._mul
        if row is not None:
            return row[other.code]
        return ExtElement(self.field, self.field._mulvec(self.val, other.val))

    def inv(self):
        r = self._inv
        if r is not None:
            return r
        return ExtElement(self.field, self.field._invvec(self.val))

    def is_zero(self):
        return not any(self.val)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ExtElement) and self.val == other.val
            and self.field is other.field)

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.val))

    def __repr__(self):
        return ",".join(str(c) for c in self.val)


class _ExtCode(ExtElement):
    """An interned element of an extension field of order <= MAX_TABLE_ORDER."""

    __slots__ = ("code", "_add", "_mul", "_neg", "_inv", "_log")

    def __init__(self, field, code: int):
        super().__init__(field, field._digits(code))
        self.code = code

    def is_zero(self):
        return self.code == 0


def _vec_code(vec, p: int) -> int:
    v = 0
    for c in reversed(vec):
        v = v * p + c
    return v


def _intern_elements(field, cls, mul_codes):
    """Intern the q = field.order elements of a finite field and build the
    code tables of its arithmetic, q <= MAX_TABLE_ORDER.

    cls(field, code) builds the element of a code; mul_codes(a, b) is the
    code of a product by the field's own route (residues or _mulvec), used
    only to walk the powers of candidates until one is primitive.  Products
    and inverses come from the log/antilog tables of that walk, sums and
    negatives digit by digit in base p (XOR of bit vectors in characteristic
    2).  Sets field._els (the elements by code), field._exp (g^i for
    i < q - 1) and field._tables (int16 arrays add (q, q), mul (q, q),
    neg (q,), inv (q,) with inv[0] = 0), and gives each element its rows of
    sums and products."""
    q, p = field.order, field.p
    for g in range(1, q):
        exp = [1]
        while len(exp) < q:
            x = mul_codes(exp[-1], g)
            if x == 1:
                break
            exp.append(x)
        if len(exp) == q - 1:
            break
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    codes = np.arange(q)
    expv = np.array(exp, dtype=np.int64)
    mul = expv[(log[:, None] + log[None, :]) % (q - 1)]
    mul[0, :] = 0
    mul[:, 0] = 0
    inv = expv[-log % (q - 1)]
    inv[0] = 0
    if p == 2:
        add = codes[:, None] ^ codes[None, :]
        neg = codes.copy()
    else:
        add = np.zeros((q, q), dtype=np.int64)
        neg = np.zeros(q, dtype=np.int64)
        weight = 1
        while weight < q:
            digit = codes // weight % p
            add += (digit[:, None] + digit[None, :]) % p * weight
            neg += -digit % p * weight
            weight *= p
    field._tables = tuple(a.astype(np.int16) for a in (add, mul, neg, inv))
    els = tuple(cls(field, c) for c in range(q))
    neg, inv, log = neg.tolist(), inv.tolist(), log.tolist()
    for c, (el, add_row, mul_row) in enumerate(zip(els, add.tolist(),
                                                   mul.tolist())):
        el._add = operator.itemgetter(*add_row)(els)
        el._mul = operator.itemgetter(*mul_row)(els)
        el._neg = els[neg[c]]
        el._inv = els[inv[c]] if c else None
        el._log = log[c] if c else -1
    field._els = els
    field._exp = tuple(els[c] for c in exp)


class Field:
    """Common interface: zero/one, coercion, serialization, iteration."""

    _els = None          # the interned elements by code (see _intern_elements)

    def __call__(self, x):
        return self.el(x)

    def code_tables(self):
        """(add, mul, neg, inv): the int16 code tables of a finite field of
        order <= MAX_TABLE_ORDER, add and mul of shape (q, q)."""
        if self._els is None:
            raise ValueError("no code tables for %r (order limit %d)"
                             % (self, MAX_TABLE_ORDER))
        return self._tables

    def nonzero_elements(self):
        return (a for a in self.elements() if not a.is_zero())


class RationalField(Field):
    kind = "rationals"
    char = 0
    order = None

    def __init__(self):
        self.zero = QElement(self, Fraction(0))
        self.one = QElement(self, Fraction(1))

    def el(self, x):
        if isinstance(x, QElement):
            return x
        return QElement(self, Fraction(x))

    def elements(self):
        raise ValueError("Q is not enumerable")

    def random(self, rng):
        return QElement(self, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    def to_str(self, a) -> str:
        return str(a.val)

    def from_str(self, s: str):
        return QElement(self, Fraction(s.strip()))

    def spec_str(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        if p >= 1 << 61:
            raise ValueError("prime too large (>= 2^61)")
        self.p = p
        self.k = 1
        self.char = p
        self.order = p
        if p <= MAX_TABLE_ORDER:
            _intern_elements(self, _PFCode, lambda a, b: a * b % p)
        self.zero = self.from_int(0)
        self.one = self.from_int(1)

    def el(self, x):
        if isinstance(x, PFElement) and x.field.p == self.p:
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise TypeError("cannot coerce %r into GF(%d)" % (x, self.p))

    def elements(self):
        if self._els is not None:
            return iter(self._els)
        return (PFElement(self, v) for v in range(self.p))

    def random(self, rng):
        return self.from_int(rng.randrange(self.p))

    def to_int(self, a) -> int:
        return a.val

    def from_int(self, v: int):
        v %= self.p
        return PFElement(self, v) if self._els is None else self._els[v]

    def to_str(self, a) -> str:
        return str(a.val)

    def from_str(self, s: str):
        return self.from_int(int(s))

    def spec_str(self):
        return "GF(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul_p(a, b, p):
    """Schoolbook product of int-coefficient polys a*b over GF(p), untrimmed."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return prod


def _poly_mulmod_p(a, b, mod, p):
    """Product of int-coefficient polys a*b reduced mod (mod, p); mod is monic."""
    k = len(mod) - 1
    prod = _poly_mul_p(a, b, p)
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(k):
                prod[d - k + j] = (prod[d - k + j] - c * mod[j]) % p
    return _poly_trim(prod)


def _poly_divmod_p(a, b, p):
    a = list(a)
    db, lead_inv = len(b) - 1, pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - db)
    for d in range(len(a) - 1, db - 1, -1):
        c = a[d] * lead_inv % p
        if c:
            q[d - db] = c
            for j in range(db + 1):
                a[d - db + j] = (a[d - db + j] - c * b[j]) % p
    return q, _poly_trim(a)


def _poly_gcd_p(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_divmod_p(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _is_irreducible_p(f, p) -> bool:
    """f monic over GF(p); Rabin irreducibility via x^(p^d) powers."""
    k = len(f) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    x = [0, 1]

    def frob_pow(g, e):
        # g^(p^e) mod f by repeated p-th powers
        for _ in range(e):
            base, ee = list(g), p
            acc = [1]
            while ee:
                if ee & 1:
                    acc = _poly_mulmod_p(acc, base, f, p)
                base = _poly_mulmod_p(base, base, f, p)
                ee >>= 1
            g = acc
        return g

    xq = frob_pow(x, k)
    if _poly_trim([(a - b) % p for a, b in
                   itertools.zip_longest(xq, x, fillvalue=0)]):
        return False
    for r in sorted({d for d in range(2, k + 1) if k % d == 0 and is_prime(d)}):
        xe = frob_pow(x, k // r)
        diff = [(a - b) % p for a, b in itertools.zip_longest(xe, x, fillvalue=0)]
        if len(_poly_gcd_p(diff, f, p)) > 1:
            return False
    return True


def default_modulus(p: int, k: int) -> tuple:
    """Deterministic modulus for GF(p^k): the monic irreducible x^k + sum c_i x^i
    whose non-leading coefficient vector (c_0 read from the low p-adic digit)
    encodes the smallest integer.  Reproducible without Conway tables."""
    for n in itertools.count():
        digits, m = [], n
        for _ in range(k):
            digits.append(m % p)
            m //= p
        if m:
            raise ValueError("no irreducible of degree %d over GF(%d)?" % (k, p))
        f = digits + [1]
        if _is_irreducible_p(f, p):
            return tuple(f)


class ExtensionField(Field):
    kind = "extension"

    def __init__(self, p: int, k: int, modulus=None):
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        if k < 2:
            raise ValueError("extension degree must be >= 2 (use GF(p) for k=1)")
        self.p = p
        self.k = k
        self.char = p
        self.order = p ** k
        if modulus is None:
            modulus = default_modulus(p, k)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree %d" % k)
        if not _is_irreducible_p(list(modulus), p):
            raise ValueError("modulus %r is reducible over GF(%d)" % (modulus, p))
        self.modulus = modulus
        if self.order <= MAX_TABLE_ORDER:
            _intern_elements(self, _ExtCode, self._mul_codes)
        self.zero = self.from_int(0)
        self.one = self.from_int(1)
        self.gen = self.from_int(p)

    def _digits(self, v: int) -> tuple:
        digits = []
        for _ in range(self.k):
            digits.append(v % self.p)
            v //= self.p
        return tuple(digits)

    def _mul_codes(self, a: int, b: int) -> int:
        return _vec_code(self._mulvec(self._digits(a), self._digits(b)),
                         self.p)

    def _from_vec(self, vec: tuple):
        """The element with coefficient tuple vec (entries in [0, p))."""
        if self._els is None:
            return ExtElement(self, vec)
        return self._els[_vec_code(vec, self.p)]

    def _mulvec(self, a, b):
        prod = _poly_mulmod_p(a, b, self.modulus, self.p)
        return tuple(prod) + (0,) * (self.k - len(prod))

    def _invvec(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of 0 in %r" % self)
        # extended Euclid in GF(p)[x] against the modulus
        p = self.p
        r0, r1 = list(self.modulus), _poly_trim(list(a))
        s0, s1 = [], [1]
        while r1:
            q, r = _poly_divmod_p(r0, r1, p)
            r0, r1 = r1, r
            qs = _poly_mul_p(q, s1, p)
            s = [(x - y) % p for x, y in itertools.zip_longest(s0, qs, fillvalue=0)]
            s0, s1 = s1, _poly_trim(s)
        lead_inv = pow(r0[-1], -1, p)
        inv = [c * lead_inv % p for c in s0]
        inv += [0] * (self.k - len(inv))
        return tuple(inv[:self.k])

    def el(self, x):
        if isinstance(x, ExtElement) and x.field is self:
            return x
        if isinstance(x, int):
            return self._from_vec((x % self.p,) + (0,) * (self.k - 1))
        if isinstance(x, PFElement) and x.field.p == self.p:
            return self._from_vec((x.val,) + (0,) * (self.k - 1))
        if isinstance(x, (tuple, list)) and len(x) == self.k:
            return self._from_vec(tuple(int(c) % self.p for c in x))
        raise TypeError("cannot coerce %r into %r" % (x, self))

    def elements(self):
        if self._els is not None:
            yield from self._els
            return
        for vec in itertools.product(range(self.p), repeat=self.k):
            yield ExtElement(self, vec[::-1])

    def random(self, rng):
        return self._from_vec(tuple(rng.randrange(self.p)
                                    for _ in range(self.k)))

    def to_int(self, a) -> int:
        return a.code

    def from_int(self, v: int):
        if self._els is not None:
            return self._els[v % self.order]
        return ExtElement(self, self._digits(v))

    def to_str(self, a) -> str:
        return ",".join(str(c) for c in a.val)

    def from_str(self, s: str):
        parts = [int(t) for t in s.split(",")]
        if len(parts) == 1:
            return self.el(parts[0])     # a prime-subfield constant
        if len(parts) != self.k:
            raise ValueError("expected %d coefficients, got %d" % (self.k, len(parts)))
        return self.el(parts)

    def spec_str(self):
        if self.modulus == default_modulus(self.p, self.k):
            return "GF(%d^%d)" % (self.p, self.k)
        return "GF(%d^%d;mod=%s)" % (self.p, self.k,
                                     ",".join(str(c) for c in self.modulus))

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.p == self.p
                and other.k == self.k and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("GF", self.p, self.k, self.modulus))

    def __repr__(self):
        return self.spec_str()


Q = RationalField()

_field_cache: dict = {}


def GF(p: int, k: int = 1, modulus=None) -> Field:
    """Finite field GF(p^k); k=1 gives the prime field."""
    if k == 1:
        key = ("p", p)
        if key not in _field_cache:
            _field_cache[key] = PrimeField(p)
        return _field_cache[key]
    key = ("e", p, k, tuple(modulus) if modulus is not None else None)
    if key not in _field_cache:
        _field_cache[key] = ExtensionField(p, k, modulus)
    return _field_cache[key]


_FIELD_RE = re.compile(r"^GF\(\s*(\d+)\s*(?:\^\s*(\d+)\s*)?(?:;\s*mod=([\d,\s]+))?\)$")


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _prime_power(n: int):
    """(p, k) with n = p^k, or None.  Primality first, then integer l-th
    roots for primes l, so no trial division runs up to sqrt(n)."""
    if n < 2:
        return None
    if is_prime(n):
        return (n, 1)
    for l in range(2, n.bit_length() + 1):
        if is_prime(l):
            r = _iroot(n, l)
            if r ** l == n:
                pk = _prime_power(r)
                return None if pk is None else (pk[0], pk[1] * l)
    return None


def parse_field(s: str) -> Field:
    """Grammar: "Q", "GF(q)" for a prime power q, "GF(p^k)",
    "GF(p^k;mod=c0,c1,...,ck)"."""
    s = s.strip()
    if s == "Q":
        return Q
    m = _FIELD_RE.match(s)
    if not m:
        raise ValueError("cannot parse field spec %r" % s)
    base = int(m.group(1))
    k = int(m.group(2)) if m.group(2) else None
    modulus = None
    if m.group(3):
        modulus = tuple(int(t) for t in m.group(3).split(","))
    if k is None:
        pk = _prime_power(base)
        if pk is None:
            raise ValueError("%d is not a prime power" % base)
        p, k = pk
    else:
        p = base
    if modulus is not None and k == 1:
        raise ValueError("modulus given for a prime field")
    return GF(p, k, modulus)
