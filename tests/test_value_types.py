"""The slotted value types: immutable, unhashable, shared zeros, and an
equality that compares every field.  The slotted records: a list or dict
left at its default is a new one per instance."""

import pytest

from powerops import dl, mu_homology, reports
from powerops.fgl import FormalGroupLaw, Logarithm
from powerops.mu_homology import SymmetricClass
from powerops.scalar import CoeffV3, PAdicScalar, primitive_teichmuller_root
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
        (Logarithm.v3_deformation(P, K), ("p", "prec", "coeffs")),
        (FormalGroupLaw.v3_truncated(P, K), ("log", "omega")),
        (QuotientNormalForm(P, CoeffV3.from_int(P, 2, K), {4: 1}, {7: 3}), ("p", "constant", "plain", "v3")),
        (SymmetricClass.newton(P, "b", 4, 2), ("p", "context", "terms")),
    ]


VALUE_IDS = ["logarithm", "law", "normal_form", "symmetric_class"]
IDS = ["scalar", "scalar_zero", "coeff", "coeff_zero", "series", *VALUE_IDS]


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


def _variants():
    """Per value type: a builder, its arguments, and one changed value for
    each field in order; None where a field cannot change alone (the
    coefficients of a logarithm carry its p)."""
    one, v3 = CoeffV3.one(P, K), CoeffV3.from_v3(PAdicScalar.from_int(P, 1, K))
    w = primitive_teichmuller_root(P, K)
    two, three = PAdicScalar.from_int(P, 2, K), PAdicScalar.from_int(P, 3, K)
    return [
        (CoeffV3, (two, three), (three, two)),
        (Logarithm, (P, K, {1: one, 2: v3}), (None, K + 1, {1: one, 3: v3})),
        (
            FormalGroupLaw,
            (Logarithm.v3_deformation(P, K), w),
            (Logarithm.additive(P, K), w * w),
        ),
        (
            QuotientNormalForm,
            (P, CoeffV3.from_int(P, 2, K), {4: 1}, {7: 3}),
            (7, CoeffV3.from_int(P, 3, K), {4: 2}, {7: 2}),
        ),
        (SymmetricClass, (P, "b", {((4, 1),): 2}), (7, "xi", {((4, 1),): 3})),
    ]


@pytest.mark.parametrize("cls, args, changed", _variants(), ids=["coeff", *VALUE_IDS])
def test_value_equality_compares_every_field(cls, args, changed):
    assert cls(*args) == cls(*args)
    assert (cls(*args) == 0) is False
    for i, value in enumerate(changed):
        if value is not None:
            assert cls(*args) != cls(*args[:i], value, *args[i + 1 :])


def test_record_defaults_are_fresh_per_instance():
    made = [
        (lambda: mu_homology.PropositionReport(P, "b"), "checks", []),
        (lambda: reports.SuiteReport("stdl", P), "checks", []),
    ]
    for make, name, want in made:
        a, b = make(), make()
        assert getattr(a, name) == want
        assert getattr(a, name) is not getattr(b, name)
        assert getattr(a, name) is not want
