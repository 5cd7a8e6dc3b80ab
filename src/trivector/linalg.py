"""Dense exact linear algebra: echelon forms, kernels, Pfaffians, minimal
polynomials.  Matrices are small here (at most a few hundred rows), so
everything is straightforward Gaussian elimination over the field."""

from __future__ import annotations

from .errors import NotSkew, OddSize, Singular
from .polys import Poly

__all__ = ["Matrix", "rank_and_kernel", "pfaffian", "is_semisimple",
           "minimal_polynomial", "det_cofactor"]


class Matrix:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        self.field = field
        self.rows = [[field.el(c) if isinstance(c, int) else c for c in row]
                     for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")

    @classmethod
    def _trusted(cls, field, rows):
        """A matrix on rows of equal length that already hold elements of
        field: taken as they are, with no coercion and no ragged-row check
        (the constructor of arithmetic results)."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = len(rows[0]) if rows else 0
        return m

    @classmethod
    def identity(cls, field, n):
        return cls._trusted(field, [[field.one if i == j else field.zero
                                     for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero
        return cls._trusted(field, [[z] * ncols for _ in range(nrows)])

    def copy(self):
        return Matrix._trusted(self.field, [list(r) for r in self.rows])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __add__(self, other):
        return Matrix._trusted(self.field, [[a + b for a, b in zip(r1, r2)]
                                            for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Matrix._trusted(self.field, [[a - b for a, b in zip(r1, r2)]
                                            for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix._trusted(self.field, [[-a for a in r] for r in self.rows])

    def scale(self, c):
        return Matrix._trusted(self.field, [[a * c for a in r] for r in self.rows])

    def __mul__(self, other):
        """Row i of the product is the sum of a_ik times row k of other over
        the nonzero a_ik only: a zero row costs no product, and the entries
        of other are never tested."""
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            zero_row = [self.field.zero] * other.ncols
            out = []
            for r in self.rows:
                acc = None
                for a, brow in zip(r, other.rows):
                    if a.is_zero():
                        continue
                    if acc is None:
                        acc = [a * b for b in brow]
                    else:
                        acc = [x + a * b for x, b in zip(acc, brow)]
                out.append(list(zero_row) if acc is None else acc)
            return Matrix._trusted(self.field, out)
        return self.scale(other)

    def apply(self, vec):
        z = self.field.zero
        return [sum((a * x for a, x in zip(row, vec) if not a.is_zero()), z)
                for row in self.rows]

    def transpose(self):
        return Matrix._trusted(self.field, [list(col) for col in zip(*self.rows)])

    def rref(self):
        """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
        rows = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            pivot = next((i for i in range(r, self.nrows)
                          if not rows[i][c].is_zero()), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = rows[r][c].inv()
            rows[r] = [x * inv for x in rows[r]]
            for i in range(self.nrows):
                if i != r and not rows[i][c].is_zero():
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return Matrix._trusted(self.field, rows), pivots

    def rank(self):
        return len(self.rref()[1])

    def inverse(self):
        if self.nrows != self.ncols:
            raise Singular("non-square matrix")
        n = self.nrows
        aug = Matrix._trusted(self.field,
                              [list(r) + list(e) for r, e in
                               zip(self.rows, Matrix.identity(self.field, n).rows)])
        red, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise Singular("matrix is not invertible")
        return Matrix._trusted(self.field, [row[n:] for row in red.rows])

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def stack(self, other):
        return Matrix(self.field, [list(r) for r in self.rows] +
                      [list(r) for r in other.rows])

    def row_space_contains(self, vec):
        a = Matrix(self.field, [list(r) for r in self.rows] + [list(vec)])
        return a.rank() == self.rank()

    def __repr__(self):
        return "Matrix(%d x %d over %r)" % (self.nrows, self.ncols, self.field)


def rank_and_kernel(m: Matrix):
    """Rank and a reduced-echelon basis of the right kernel {v : M v = 0}."""
    red, pivots = m.rref()
    rank = len(pivots)
    free = [c for c in range(m.ncols) if c not in pivots]
    field = m.field
    basis = []
    for fc in free:
        v = [field.zero] * m.ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red.rows[r][fc]
        basis.append(v)
    if basis:
        basis = Matrix(field, basis).rref()[0].rows
    return rank, [list(v) for v in basis]


def kernel_matrix(m: Matrix) -> Matrix:
    rank, basis = rank_and_kernel(m)
    return Matrix(m.field, basis) if basis else Matrix(m.field, [])


def check_skew(m: Matrix):
    """Skew-symmetric including zero diagonal (the char-2-safe definition)."""
    if m.nrows != m.ncols:
        raise NotSkew("matrix is not square")
    for i in range(m.nrows):
        if not m.rows[i][i].is_zero():
            raise NotSkew("nonzero diagonal entry at %d" % i)
        for j in range(i + 1, m.ncols):
            if m.rows[i][j] != -m.rows[j][i]:
                raise NotSkew("entry (%d,%d) is not the negative of (%d,%d)"
                              % (i, j, j, i))


def pfaffian(m: Matrix, one=None):
    """Pfaffian by recursive expansion along the first row.

    Sign convention: pf([[0, a], [-a, 0]]) = a, so the standard symplectic
    block has Pfaffian +1.

    The entries may live in any commutative ring whose elements support
    +, -, *, unary minus, == and is_zero() (e.g. MultiPoly linear forms);
    `one` is then that ring's identity.  It defaults to m.field.one.
    """
    check_skew(m)
    n = m.nrows
    if n % 2 != 0:
        raise OddSize("Pfaffian needs even size, got %d" % n)
    if one is None:
        one = m.field.one
    zero = one - one
    memo = {}

    def rec(idx):
        if not idx:
            return one
        if idx in memo:
            return memo[idx]
        i0 = idx[0]
        acc = zero
        for t in range(1, len(idx)):
            a = m.rows[i0][idx[t]]
            if a.is_zero():
                continue
            rest = idx[1:t] + idx[t + 1:]
            term = a * rec(rest)
            acc = acc + term if t % 2 == 1 else acc - term
        memo[idx] = acc
        return acc

    return rec(tuple(range(n)))


def det_cofactor(m: Matrix):
    """Determinant by cofactor expansion; the independent oracle for
    pf^2 = det and pf(g^T M g) = det(g) pf(M)."""
    n = m.nrows
    if n == 0:
        return m.field.one
    if n == 1:
        return m.rows[0][0]
    acc = m.field.zero
    for j in range(n):
        a = m.rows[0][j]
        if a.is_zero():
            continue
        minor = Matrix(m.field, [[row[k] for k in range(n) if k != j]
                                 for row in m.rows[1:]])
        term = a * det_cofactor(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def minimal_polynomial(m: Matrix) -> Poly:
    """Minimal polynomial of a square matrix, monic."""
    if m.nrows != m.ncols:
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.nrows
    field = m.field
    # incremental echelon on flattened powers of m
    basis = []       # echelon rows over the n^2-dim space
    pivots = []
    powers = [Matrix.identity(field, n)]
    reps = []        # reps[i] = coefficients expressing power i after reduction

    def flatten(mat):
        return [mat.rows[i][j] for i in range(n) for j in range(n)]

    k = 0
    while True:
        vec = flatten(powers[-1])
        combo = [field.zero] * (k + 1)
        combo[k] = field.one
        # reduce vec against current echelon, tracking the combination
        for (prow, pcol, pcombo) in zip(basis, pivots, reps):
            c = vec[pcol]
            if not c.is_zero():
                vec = [x - c * y for x, y in zip(vec, prow)]
                combo = [x - c * y for x, y in
                         zip(combo + [field.zero] * (len(pcombo) - len(combo)),
                             pcombo + [field.zero] * (len(combo) - len(pcombo)))]
        piv = next((i for i, x in enumerate(vec) if not x.is_zero()), None)
        if piv is None:
            # combo gives the minimal polynomial coefficients
            lead = combo[k]
            coeffs = [c / lead for c in combo]
            return Poly(field, coeffs)
        inv = vec[piv].inv()
        basis.append([x * inv for x in vec])
        pivots.append(piv)
        reps.append([c * inv for c in combo])
        powers.append(powers[-1] * m)
        k += 1
        if k > n:
            raise RuntimeError("minimal polynomial search exceeded dimension")


def is_semisimple(m: Matrix) -> bool:
    """Squarefree minimal polynomial test (valid over perfect fields)."""
    mp = minimal_polynomial(m)
    return mp.is_squarefree()
