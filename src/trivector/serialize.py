"""JSON formats for the value types the command-line tools exchange.

Field elements serialize as decimal strings (rationals as "a/b", extension
elements as comma-separated coefficient vectors, constant first).
"""

from __future__ import annotations

import json

from .fields import Field, parse_field
from .linalg import Matrix
from .loci import CubicForm, DEGREE3_EXPONENTS
from .trivector import CURVE_DEGREES, CurveCoeffs, Trivector
from .flags import Flag1368

__all__ = [
    "trivector_to_json", "trivector_from_json", "curve_to_json",
    "curve_from_json", "flag_from_json", "matrix_to_json", "matrix_from_json",
    "gl_matrix_from_json",
    "pencil_from_json", "cubic_to_json", "cubic_from_json",
    "load_json", "dump_json",
]


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def dump_json(obj, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def trivector_to_json(t: Trivector) -> dict:
    f = t.field
    return {"field": f.spec_str(),
            "terms": [{"ijk": list(trip), "c": f.to_str(c)}
                      for trip, c in sorted(t.coeffs.items())]}


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean",
               type(None): "null"}


def _check(value, kinds, path):
    """value, if its JSON type is one of kinds; else a ValueError naming the
    JSON path (booleans are not integers here)."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if isinstance(value, kinds) and not isinstance(value, bool):
        return value
    raise ValueError("%s: expected %s, got %s"
                     % (path, " or ".join(_JSON_NAMES[k] for k in kinds),
                        _JSON_NAMES.get(type(value), type(value).__name__)))


def _get(data, key, kinds, path):
    _check(data, dict, path)
    if key not in data:
        raise ValueError("%s: missing key %r" % (path, key))
    return _check(data[key], kinds, "%s.%s" % (path, key))


def _field_at(data, path="$"):
    spec = _get(data, "field", str, path)
    try:
        return parse_field(spec)
    except ValueError as exc:
        raise ValueError("%s.field: %s" % (path, exc))


def _element(field, value, path):
    _check(value, (str, int), path)
    try:
        return field.from_str(str(value))
    except ValueError as exc:
        raise ValueError("%s: bad field element %r: %s" % (path, value, exc))


def _int_list(value, length, path):
    _check(value, list, path)
    if len(value) != length:
        raise ValueError("%s: expected %d integers, got %d entries"
                         % (path, length, len(value)))
    for n, v in enumerate(value):
        _check(v, int, "%s[%d]" % (path, n))
    return value


def trivector_from_json(data: dict) -> Trivector:
    field = _field_at(data)
    coeffs = {}
    for n, item in enumerate(_get(data, "terms", list, "$")):
        path = "$.terms[%d]" % n
        i, j, k = _int_list(_get(item, "ijk", list, path), 3, path + ".ijk")
        if not (1 <= i < j < k <= 9):
            raise ValueError("%s.ijk: triple %r is not strictly increasing "
                             "in 1..9" % (path, item["ijk"]))
        if (i, j, k) in coeffs:
            raise ValueError("%s.ijk: triple %r repeats an earlier term"
                             % (path, item["ijk"]))
        coeffs[(i, j, k)] = _element(field, _get(item, "c", (str, int), path),
                                     path + ".c")
    return Trivector(field, coeffs)


def curve_to_json(c: CurveCoeffs) -> dict:
    f = c.field
    return {"field": f.spec_str(),
            "c": {str(d): f.to_str(c[d]) for d in CURVE_DEGREES
                  if not c[d].is_zero()}}


def curve_from_json(data: dict) -> CurveCoeffs:
    field = _field_at(data)
    cmap = {}
    for key, val in _get(data, "c", dict, "$").items():
        path = "$.c.%s" % key
        try:
            d = int(key)
        except ValueError:
            raise ValueError("%s: degree %r is not an integer" % (path, key))
        if d not in CURVE_DEGREES:
            raise ValueError("%s: unknown curve coefficient degree %d"
                             % (path, d))
        if d in cmap:
            raise ValueError("%s: degree %d is given twice" % (path, d))
        cmap[d] = _element(field, val, path)
    return CurveCoeffs(field, cmap)


def matrix_to_json(m: Matrix) -> list:
    f = m.field
    return [[f.to_str(x) for x in row] for row in m.rows]


def matrix_from_json(field: Field, rows: list, path: str = "$",
                     shape=None) -> Matrix:
    """A matrix from a JSON array of rows; shape (nrows, ncols), if given,
    is required."""
    out = []
    for r, row in enumerate(_check(rows, list, path)):
        rpath = "%s[%d]" % (path, r)
        out.append([_element(field, x, "%s[%d]" % (rpath, c))
                    for c, x in enumerate(_check(row, list, rpath))])
    if len({len(row) for row in out}) > 1:
        raise ValueError("%s: rows of different lengths" % path)
    if shape is not None and (len(out), len(out[0]) if out else 0) != shape:
        raise ValueError("%s: expected a %d x %d matrix" % ((path,) + shape))
    return Matrix(field, out)


def gl_matrix_from_json(field: Field, data: dict) -> Matrix:
    """The matrix file of `gamma act --matrix`: {"rows": 9 x 9 entries}."""
    return matrix_from_json(field, _get(data, "rows", list, "$"), "$.rows",
                            shape=(9, 9))


def flag_from_json(data: dict) -> Flag1368:
    field = _field_at(data)
    mats = [matrix_from_json(field, _get(data, key, list, "$"), "$." + key)
            for key in ("F1", "F3", "F6", "F8")]
    try:
        return Flag1368(field, *mats)
    except ValueError as exc:
        raise ValueError("$: %s" % exc)


def pencil_from_json(data: dict) -> list:
    field = _field_at(data)
    mats = _get(data, "matrices", list, "$")
    if len(mats) != 9:
        raise ValueError("$.matrices: a pencil file needs exactly 9 matrices")
    return [matrix_from_json(field, rows, "$.matrices[%d]" % n, shape=(9, 9))
            for n, rows in enumerate(mats)]


def pencil_to_json(field: Field, mats) -> dict:
    return {"field": field.spec_str(),
            "matrices": [matrix_to_json(m) for m in mats]}


def cubic_to_json(c: CubicForm) -> dict:
    f = c.field
    return {"field": f.spec_str(),
            "monomials": [{"exp": list(e), "c": f.to_str(v)}
                          for e, v in sorted(c.coeffs.items(), reverse=True)]}


def cubic_from_json(data: dict) -> CubicForm:
    field = _field_at(data)
    coeffs = {}
    for n, item in enumerate(_get(data, "monomials", list, "$")):
        path = "$.monomials[%d]" % n
        e = tuple(_int_list(_get(item, "exp", list, path), 9, path + ".exp"))
        if e not in DEGREE3_EXPONENTS:
            raise ValueError("%s.exp: bad cubic exponent vector %r"
                             % (path, e))
        if e in coeffs:
            raise ValueError("%s.exp: exponent vector %r repeats an earlier "
                             "monomial" % (path, e))
        coeffs[e] = _element(field, _get(item, "c", (str, int), path),
                             path + ".c")
    return CubicForm(field, coeffs)
