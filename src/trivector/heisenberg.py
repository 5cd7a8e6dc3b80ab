"""The level-3 Heisenberg action on the 9-dimensional space, indexed by the
3x3 grid

    1 2 3
    4 5 6
    7 8 9

(position (r, c) is index 3r + c + 1), and its invariants in the third wedge
power.  The four operators are the row/column cyclic shifts and the row/column
character multiplications by a primitive cube root of unity; together they
project to the full 3-torsion group of an abelian surface, which is what makes
the invariant space 4-dimensional rather than 12-dimensional (the two
row operators alone fix a 12-dimensional space)."""

from __future__ import annotations

from .errors import NoCubeRoot
from .fields import Field
from .linalg import Matrix, rank_and_kernel
from .trivector import TRIPLE_INDEX, TRIPLES, Trivector, wedge3_minors

__all__ = ["cube_root_of_unity", "heisenberg_operators", "wedge3_matrix",
           "heisenberg_invariants"]


def cube_root_of_unity(field: Field):
    """The smallest-encoded element with z^3 = 1, z != 1; NoCubeRoot if none."""
    if field.order is None:
        raise NoCubeRoot("the rationals contain no primitive cube root of unity")
    if field.order % 3 != 1:
        raise NoCubeRoot("%r has no primitive cube root of unity" % field)
    one = field.one
    for a in field.elements():
        if a == one or a.is_zero():
            continue
        if a * a * a == one:
            return a
    raise NoCubeRoot("no cube root found in %r" % field)


def _grid(r, c):
    return 3 * (r % 3) + (c % 3) + 1


def heisenberg_operators(field: Field):
    """Four 9x9 matrices: row shift, column shift, row character, column
    character (each column i is the image of e_{i+1})."""
    zeta = cube_root_of_unity(field)
    z = field.zero
    shift_row = [[z] * 9 for _ in range(9)]
    shift_col = [[z] * 9 for _ in range(9)]
    char_row = [[z] * 9 for _ in range(9)]
    char_col = [[z] * 9 for _ in range(9)]
    for r in range(3):
        for c in range(3):
            i = _grid(r, c)
            shift_row[_grid(r + 1, c) - 1][i - 1] = field.one
            shift_col[_grid(r, c + 1) - 1][i - 1] = field.one
            char_row[i - 1][i - 1] = zeta ** r
            char_col[i - 1][i - 1] = zeta ** c
    return [Matrix(field, m) for m in (shift_row, shift_col, char_row, char_col)]


def wedge3_matrix(g: Matrix) -> Matrix:
    """The 84x84 matrix of the induced action on the third wedge power, in the
    basis of sorted triples."""
    cols = g.transpose().rows
    out = [[g.field.zero] * 84 for _ in range(84)]
    for col_idx, (i, j, k) in enumerate(TRIPLES):
        for trip, det in wedge3_minors(cols[i - 1], cols[j - 1], cols[k - 1]):
            out[TRIPLE_INDEX[trip]][col_idx] = det
    return Matrix(g.field, out)


def heisenberg_invariants(field: Field):
    """Dimension and a basis (as trivectors) of the common fixed space of the
    Heisenberg operators on the third wedge power."""
    ops = heisenberg_operators(field)
    ident = Matrix.identity(field, 84)
    stacked = None
    for g in ops:
        block = wedge3_matrix(g) - ident
        stacked = block if stacked is None else stacked.stack(block)
    _, basis = rank_and_kernel(stacked)
    invariants = [Trivector(field, dict(zip(TRIPLES, vec))) for vec in basis]
    return len(invariants), invariants
