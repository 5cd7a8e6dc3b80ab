"""Vectorized exact kernels for the point scans over small finite fields.

Field elements are encoded as integers (the field's canonical integer
encoding, ``field.to_int``); prime fields compute with modular arithmetic,
extension fields of order <= 256 look sums and products up in the code
tables the field keeps for its interned elements (``field.code_tables()``;
in characteristic 2 the codes are coefficient bit vectors and addition is
XOR, so no addition table is read).
The q x q tables are kept raveled, and a product or sum of codes a, b is one
1-D lookup at a * q + b by np.take; numpy's 2-D fancy index table[a, b]
takes 1.6-1.7 times as long on 8,192 codes, and the 1-D fancy index
table[a * q + b] about twice as long on 8,000 GF(4) codes.  The index is
formed in int16 while q * q <= 2^15 and in int32 above (GF(243), GF(256)).
These kernels only ever see encoded data, so no floating point is involved.

Each kernel owns the dtype of its codes (``FieldKernel.dtype``: int16 while
q <= 2^15, int32 above).  Inputs are code arrays of that dtype or wider.
Prime fields are accepted up to p = 2^16; above p = 181 the product of two
int16 codes no longer fits in int16, so those kernels widen to int64 before
adding or multiplying, which keeps every result exact.

There is one coded matrix product, ``FieldKernel.matmul``.  Over a table
field it accumulates one product of codes per inner index and skips the
all-zero rows of a 2-D right factor.  ``build_skew``, the pencil phi(x) at
a batch of points, is that product of the points with the structure tensor
(loci._structure_tensor_codes), so a sparse tensor such as that of e123
costs only its live coordinates.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fields import MAX_TABLE_ORDER, ExtensionField, Field, PrimeField

__all__ = ["FieldKernel", "projective_runs", "projective_run",
           "projective_count", "code_dtype"]

_kernel_cache: dict = {}

MAX_KERNEL_PRIME = 1 << 16     # the inverse table holds one entry per code


def projective_count(q: int, dim: int = 9) -> int:
    return (q ** dim - 1) // (q - 1)


def code_dtype(q: int):
    """The narrowest integer dtype holding every code of a field of order q."""
    return np.int16 if q <= 1 << 15 else np.int32


class FieldKernel:
    """Batched arithmetic over one finite field, codes in [0, q)."""

    def __init__(self, field: Field):
        self.field = field
        self.q = field.order
        self.wide = None
        self.xor = False
        if isinstance(field, PrimeField):
            if field.p > MAX_KERNEL_PRIME:
                raise ValueError("prime %d too large for the scan kernel "
                                 "(limit %d)" % (field.p, MAX_KERNEL_PRIME))
            self.prime = field.p
            self.table = None
            q = field.p
            if (q - 1) ** 2 > np.iinfo(np.int16).max:
                self.wide = np.int64
            self.inv_vec = np.array([0] + [pow(a, -1, q) for a in range(1, q)],
                                    dtype=np.int64)
        elif isinstance(field, ExtensionField):
            if field.order > MAX_TABLE_ORDER:
                raise ValueError("table kernel limited to order <= %d"
                                 % MAX_TABLE_ORDER)
            self.prime = None
            q = field.order
            add, mul, neg, inv = field.code_tables()
            # characteristic 2: codes are coefficient bit vectors, + is XOR
            self.xor = field.p == 2
            # add and mul raveled: entry (a, b) sits at a * q + b
            self.table = (None if self.xor else add.ravel(), mul.ravel(),
                          neg, inv)
            if q * q > np.iinfo(np.int16).max + 1:
                self.wide = np.int32      # a * q + b no longer fits in int16
        else:
            raise ValueError("scan kernels need a finite field")
        self.dtype = code_dtype(self.q)

    # elementwise coded ops -------------------------------------------------
    def _flat_index(self, a, b):
        """a * q + b, the index of table entry (a, b) in a raveled table."""
        if self.wide:
            a = np.asarray(a, self.wide)
        return a * self.q + b

    def add(self, a, b):
        if self.prime:
            if self.wide:
                a = np.asarray(a, self.wide)
            return (a + b) % self.prime
        if self.xor:
            return a ^ b
        return np.take(self.table[0], self._flat_index(a, b))

    def sub(self, a, b):
        if self.prime:
            if self.wide:
                a = np.asarray(a, self.wide)
            return (a - b) % self.prime
        if self.xor:
            return a ^ b
        return np.take(self.table[0], self._flat_index(a, self.table[2][b]))

    def mul(self, a, b):
        if self.prime:
            if self.wide:
                a = np.asarray(a, self.wide)
            return (a * b) % self.prime
        return np.take(self.table[1], self._flat_index(a, b))

    def inv(self, a):
        if self.prime:
            return self.inv_vec[a]
        return self.table[3][a]

    def neg(self, a):
        if self.prime:
            return (-a) % self.prime
        if self.xor:
            return a
        return self.table[2][a]

    def encode(self, el) -> int:
        return self.field.to_int(el)

    def decode(self, code: int):
        return self.field.from_int(int(code))

    # batched structure -----------------------------------------------------
    def matmul(self, a, b):
        """Coded (..., r, k) @ (..., k, c) in the kernel's dtype: prime
        fields multiply in int64 and reduce once, table fields accumulate
        one column-by-row product of codes per inner index k.  A 2-D right
        factor, shared by the whole stack, skips its all-zero rows: a
        sparse one, such as the structure tensor of e123 in build_skew,
        costs only its live rows.  A stacked right factor is not tested: a
        row zero across a whole stack is rare, and the test costs about as
        much as one product."""
        if self.prime:
            prod = np.matmul(a.astype(np.int64), b.astype(np.int64))
            return (prod % self.prime).astype(self.dtype)
        live = (np.flatnonzero(b.any(axis=1)) if b.ndim == 2
                else range(b.shape[-2]))
        if not len(live):
            live = [0]      # an all-zero right factor: one zero product
        acc = self.mul(a[..., :, live[0], None], b[..., None, live[0], :])
        for j in live[1:]:
            acc = self.add(acc, self.mul(a[..., :, j, None],
                                         b[..., None, j, :]))
        return acc

    def build_skew(self, points, tensor):
        """points: (N, 9) codes; tensor: (9, 9, 9) codes with
        M[a,b] = sum_k tensor[a,b,k] * x_k; returns (N, 9, 9) codes in the
        kernel's dtype, one coded product points @ tensor (matmul)."""
        return self.matmul(points, tensor.reshape(81, 9).T).reshape(-1, 9, 9)

    def _eliminate(self, mats, reduced):
        """The one elimination loop, in place on an (N, rows, cols) stack.

        Each column pivots every matrix that has a nonzero entry at or
        below its current rank and clears that column below the pivot
        (row echelon form) or, with `reduced`, in every other row
        (reduced row echelon form).  Returns (ranks, pivots) where
        pivots[k, r] is the pivot column of row r of matrix k (-1 past
        its rank) when `reduced`, else None."""
        n, rows, cols = mats.shape
        ranks = np.zeros(n, dtype=np.int64)
        pivots = np.full((n, rows), -1, dtype=np.int64) if reduced else None
        rowidx = np.arange(rows)
        sel = np.arange(n)
        for col in range(cols):
            colvals = mats[:, :, col]
            avail = (rowidx[None, :] >= ranks[:, None]) & (colvals != 0)
            piv = np.argmax(avail, axis=1)
            has = avail[sel, piv]
            idx = np.nonzero(has)[0]
            if idx.size == 0:
                continue
            pr, rr = piv[idx], ranks[idx]
            tmp = mats[idx, pr, :].copy()
            mats[idx, pr, :] = mats[idx, rr, :]
            mats[idx, rr, :] = tmp
            pivvals = mats[idx, rr, col]
            invs = self.inv(pivvals)
            mats[idx, rr, :] = self.mul(mats[idx, rr, :], invs[:, None])
            if reduced:
                pivots[idx, rr] = col
                clear = rowidx[None, :] != rr[:, None]
            else:
                clear = rowidx[None, :] > rr[:, None]
            factors = np.where(clear, mats[idx, :, col], 0)
            prod = self.mul(factors[:, :, None], mats[idx, rr, :][:, None, :])
            mats[idx] = self.sub(mats[idx], prod)
            ranks[idx] += 1
        return ranks, pivots

    def batched_rank(self, mats):
        """Ranks of a batch of 9x9 coded matrices (destroys mats)."""
        return self._eliminate(mats, reduced=False)[0]

    def batched_rref(self, mats):
        """Reduced row echelon forms of an (N, rows, cols) stack of coded
        matrices; returns (ranks, pivots, reduced copy in the kernel's
        dtype) with pivots[k, r] the pivot column of row r of matrix k,
        -1 for r >= ranks[k]."""
        m = np.array(mats, dtype=self.dtype)
        ranks, pivots = self._eliminate(m, reduced=True)
        return ranks, pivots, m

    def batched_kernel_basis(self, mats):
        """Right kernels of an (N, rows, cols) stack of coded matrices.

        Returns (ranks, basis): basis[k] is (cols, cols), its first
        cols - ranks[k] rows a kernel basis of matrix k, one row per free
        column c in increasing order (e_c - sum_r red[r, c] e_pivot(r) for
        the reduced form red), and the remaining rows zero."""
        ranks, pivots, red = self.batched_rref(mats)
        n, rows, cols = red.shape
        basis = np.zeros((n, cols, cols), dtype=self.dtype)
        is_pivot = np.zeros((n, cols), dtype=bool)
        for r in range(rows):
            idx = np.nonzero(pivots[:, r] >= 0)[0]
            if idx.size == 0:
                break
            pc = pivots[idx, r]
            basis[idx, :, pc] = self.neg(red[idx, r, :])
            is_pivot[idx, pc] = True
        k, c = np.nonzero(~is_pivot)
        basis[k, c, c] = 1
        # the rows of pivot columns are not kernel vectors: zero them and
        # move them behind the free rows, keeping the free rows in order
        basis[is_pivot] = 0
        order = np.argsort(is_pivot, axis=1, kind="stable")
        return ranks, np.take_along_axis(basis, order[:, :, None], axis=1)

    def double_contract(self, alpha, beta, tensor):
        """phi(alpha) beta for (N, 9) coded covectors alpha and beta, with
        phi(x) = build_skew(x, tensor): the double contraction of the
        trivector by alpha and beta, up to sign, as (N, 9) codes."""
        mats = self.build_skew(alpha, tensor)
        return self.matmul(mats, beta[:, :, None])[:, :, 0]

    def rref(self, mat):
        """Exact reduced row echelon form of a single coded matrix;
        returns (rank, pivots, reduced copy in the kernel's dtype).

        Its own loop rather than batched_rref on a stack of one: it
        clears only the rows with a nonzero entry in the pivot column and
        stops at full row rank, which made it 1.7-46 times faster on the
        400 x 165 samples of interpolate_cubic and on a sparse 7056 x 81
        system."""
        m = np.array(mat, dtype=self.dtype)
        nrows, ncols = m.shape
        pivots = []
        r = 0
        for c in range(ncols):
            col = m[r:, c]
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            p = r + nz[0]
            if p != r:
                m[[r, p]] = m[[p, r]]
            m[r] = self.mul(m[r], self.inv(m[r, c]))
            others = np.nonzero(m[:, c])[0]
            others = others[others != r]
            if others.size:
                factors = m[others, c]
                m[others] = self.sub(m[others],
                                     self.mul(factors[:, None], m[r][None, :]))
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return r, pivots, m

    def kernel_basis(self, mat):
        """Reduced-echelon right-kernel basis of a coded matrix."""
        ranks, basis = self.batched_kernel_basis(np.asarray(mat)[None])
        _, _, out = self.rref(basis[0, :basis.shape[1] - ranks[0]])
        return out


def field_kernel(field: Field) -> FieldKernel:
    key = field
    if key not in _kernel_cache:
        _kernel_cache[key] = FieldKernel(field)
    return _kernel_cache[key]


def projective_runs(q: int, chunk: int):
    """The canonical representatives of P^8(F_q) (first nonzero coordinate
    is 1) as runs of at most `chunk` points in lexicographic order, each
    one product box (head, lo, hi): its points have first len(head)
    coordinates head (the zeros before the leading 1, the 1 and some fixed
    digits), next coordinate in lo..hi-1 and the remaining 8 - len(head)
    coordinates anywhere in F_q (see projective_run).

    A lead block with m coordinates after its 1 leaves the last f of them
    free, the most that q^f <= chunk and f < m allow, and cuts the digit
    before them into ranges of min(q, chunk // q^f) values.  The point e_9
    is the box with its leading 1 as the range."""
    for lead in range(8):
        tail = 8 - lead
        free = 0
        while free + 1 < tail and q ** (free + 1) <= chunk:
            free += 1
        width = min(q, chunk // q ** free)
        ranges = [(lo, min(q, lo + width)) for lo in range(0, q, width)]
        prefix = (0,) * lead + (1,)
        for fixed in itertools.product(range(q), repeat=tail - 1 - free):
            head = prefix + fixed
            for lo, hi in ranges:
                yield head, lo, hi
    yield (0,) * 8, 1, 2


def projective_run(q: int, head: tuple, lo: int, hi: int, idx=None):
    """The (n, 9) integer codes of run (head, lo, hi) of projective_runs,
    in lexicographic order: n = (hi - lo) * q^(8 - len(head)).  With idx,
    only the rows at those positions of the run, in idx's order."""
    s = len(head)
    free = 8 - s
    idx = (np.arange((hi - lo) * q ** free) if idx is None
           else np.asarray(idx, dtype=np.int64))
    pts = np.empty((idx.size, 9), dtype=code_dtype(q))
    pts[:, :s] = head
    pts[:, s] = lo + idx // q ** free
    for pos in range(s + 1, 9):
        pts[:, pos] = idx // q ** (8 - pos) % q
    return pts
