"""The slotted value types: immutable, unhashable, shared zeros, and the
equality a frozen dataclass would have generated."""

import pytest

from powerops.scalar import CoeffV3, PAdicScalar
from powerops.series import QuotientNormalForm, TruncatedSeries

P, K = 5, 8


def values():
    x = TruncatedSeries.variable(P, "x", ("x", "alpha"), (6, 7), K)
    return [
        (PAdicScalar.from_int(P, 35, K), ("p", "valuation", "unit", "prec", "is_zero_flag")),
        (PAdicScalar.zero(P), ("p", "valuation", "unit", "prec", "is_zero_flag")),
        (CoeffV3(PAdicScalar.from_int(P, 2, K), PAdicScalar.from_int(P, 3, K)), ("plain", "v3part")),
        (CoeffV3.zero(P), ("plain", "v3part")),
        (x, ("vars", "bounds", "terms", "p")),
    ]


IDS = ["scalar", "scalar_zero", "coeff", "coeff_zero", "series"]


@pytest.mark.parametrize("obj, fields", values(), ids=IDS)
def test_assignment_and_deletion_raise(obj, fields):
    before = repr(obj)
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == before


@pytest.mark.parametrize("obj, fields", values(), ids=IDS)
def test_unhashable(obj, fields):
    with pytest.raises(TypeError):
        hash(obj)


def test_zeros_are_shared_per_prime():
    assert PAdicScalar.zero(5) is PAdicScalar.zero(5)
    assert CoeffV3.zero(5) is CoeffV3.zero(5)
    assert PAdicScalar.zero(5) is not PAdicScalar.zero(7)
    assert (PAdicScalar.zero(7).p, CoeffV3.zero(7).p) == (7, 7)
    z = CoeffV3.zero(5)
    assert z.plain is PAdicScalar.zero(5) and z.v3part is PAdicScalar.zero(5)
    assert PAdicScalar.from_int(5, 0) is PAdicScalar.zero(5)
    assert z.is_zero() and repr(z) == "0"
    # a zero part builds no coefficient of its own
    assert CoeffV3.from_plain(PAdicScalar.zero(5)) is z
    assert CoeffV3.from_v3(PAdicScalar.zero(5)) is z
    assert CoeffV3.from_int(5, 0) is z


def test_series_equality_compares_every_field():
    vars, bounds = ("x", "alpha"), (6, 7)
    x = TruncatedSeries.variable(P, "x", vars, bounds, K)
    assert x == TruncatedSeries.variable(P, "x", vars, bounds, K)
    # equal coefficients at different precisions still compare equal
    assert x == TruncatedSeries.variable(P, "x", vars, bounds, K + 4)
    assert x != TruncatedSeries.variable(P, "x", vars, (6, 8), K)
    assert x != TruncatedSeries(("x", "beta"), bounds, x.terms, P)
    assert x != TruncatedSeries(vars, bounds, x.terms, 7)
    assert x != TruncatedSeries.variable(P, "alpha", vars, bounds, K)
    assert (x == 0) is False
    assert x != 0
    assert TruncatedSeries.zero(P, vars, bounds) != 0


def test_normal_form_equality_compares_every_field_and_is_unhashable():
    def form(v3):
        return QuotientNormalForm(P, CoeffV3.from_int(P, 2, K), {4: 1}, v3)

    assert form({7: 3}) == form({7: 3})
    assert form({7: 3}) != form({7: 2})
    assert form({7: 3}) != QuotientNormalForm(P, CoeffV3.from_int(P, 2, K), {4: 2}, {7: 3})
    with pytest.raises(TypeError):
        hash(form({}))
