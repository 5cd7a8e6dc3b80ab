import random

import pytest

from trivector.fields import GF, Q
from trivector.flags import standard_flag
from trivector.loci import cubic_of_Y, pencil_basis
from trivector.serialize import (cubic_from_json, cubic_to_json,
                                 curve_from_json, curve_to_json,
                                 flag_from_json, pencil_from_json,
                                 pencil_to_json, trivector_from_json,
                                 trivector_to_json)
from trivector.trivector import (CurveCoeffs, Trivector, TRIPLES,
                                 build_gamma_c)


def test_trivector_round_trip():
    rng = random.Random(0)
    for field in (GF(7), GF(2, 2), Q):
        t = Trivector(field, {TRIPLES[rng.randrange(84)]: field.random(rng)
                              for _ in range(10)})
        assert trivector_from_json(trivector_to_json(t)) == t


def test_trivector_load_validates_triples():
    with pytest.raises(ValueError):
        trivector_from_json({"field": "GF(2)",
                             "terms": [{"ijk": [2, 1, 3], "c": "1"}]})
    with pytest.raises(ValueError):
        trivector_from_json({"field": "GF(2)",
                             "terms": [{"ijk": [1, 2, 10], "c": "1"}]})


def test_curve_round_trip_with_omitted_zero_keys():
    f7 = GF(7)
    c = CurveCoeffs(f7, {15: 2, 30: 3})
    data = curve_to_json(c)
    assert set(data["c"]) == {"15", "30"}     # zeros omitted
    assert curve_from_json(data) == c
    assert curve_from_json({"field": "GF(7)", "c": {}}) == CurveCoeffs(f7)
    with pytest.raises(ValueError):
        curve_from_json({"field": "GF(7)", "c": {"5": "1"}})


def test_flag_round_trip():
    f5 = GF(5)
    sf = standard_flag(f5)
    data = {"field": "GF(5)", **sf.to_json()}
    assert flag_from_json(data) == sf


def test_pencil_round_trip():
    f16 = GF(2, 4)
    t = build_gamma_c(CurveCoeffs(f16, {15: 1}))
    mats = pencil_basis(t)
    data = pencil_to_json(f16, mats)
    back = pencil_from_json(data)
    assert all(a == b for a, b in zip(mats, back))


def test_cubic_round_trip():
    f4 = GF(2, 2)
    from trivector.polys import embed_map
    c = CurveCoeffs(GF(2), {15: 1}).map_coeffs(f4, embed_map(GF(2), f4))
    cubic = cubic_of_Y(build_gamma_c(c))
    data = cubic_to_json(cubic)
    back = cubic_from_json(data)
    assert back.coeffs == cubic.coeffs


@pytest.mark.parametrize("load,data,where", [
    (trivector_from_json, {"field": "GF(2)", "terms": 5}, "$.terms"),
    (trivector_from_json, [{"field": "GF(2)", "terms": []}], "$:"),
    (trivector_from_json, {"field": "GF(2)", "terms": [
        {"ijk": [1, 2, 3], "c": "1"}, {"ijk": [1, 2, 3], "c": "1"}]},
     "$.terms[1].ijk"),
    (curve_from_json, {"field": "GF(7)", "c": {"15": "1", "015": "2"}},
     "$.c.015"),
    (flag_from_json, {"field": "GF(5)", "F1": [[1, 0]], "F3": [], "F6": [],
                      "F8": []}, "$:"),
    (pencil_from_json, {"field": "GF(2)", "matrices": [[]] * 9},
     "$.matrices[0]"),
    (cubic_from_json, {"field": "GF(2)", "monomials": [
        {"exp": [3, 0, 0, 0, 0, 0, 0, 0], "c": "1"}]}, "$.monomials[0].exp"),
    (cubic_from_json, {"field": "GF(2)", "monomials": [
        {"exp": [3, 0, 0, 0, 0, 0, 0, 0, 0], "c": True}]},
     "$.monomials[0].c"),
    (curve_from_json, {"field": "GF(7)"}, "$: missing key 'c'"),
])
def test_loaders_name_the_json_path(load, data, where):
    with pytest.raises(ValueError) as exc:
        load(data)
    assert str(exc.value).startswith(where)
