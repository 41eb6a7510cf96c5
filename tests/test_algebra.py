"""Exact algebra layer: oracles, ring axioms, truncation semantics."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nscurves.algebra import LaurentSeries, WeightedPoly, residue_of_product
from nscurves.errors import (
    NonUnitLeadingCoefficient,
    ResidueObstruction,
    TruncationTooShallow,
)


# --- WeightedPoly basics ---

def test_poly_weight_tracking():
    l2, l5 = WeightedPoly.gen(2), WeightedPoly.gen(5)
    assert l2.weight == 2
    assert (l2 * l2).weight == 4
    assert (l2 * l5).weight == 7
    mixed = l2 + l5
    assert mixed.weight is None
    assert WeightedPoly.const(3).weight == 0
    assert WeightedPoly.zero().weight is None


def test_poly_arithmetic_identities():
    l2, l3 = WeightedPoly.gen(2), WeightedPoly.gen(3)
    p = 2 * l2 + l3 * l3 - Fraction(1, 2)
    assert p - p == WeightedPoly.zero()
    assert p + WeightedPoly.zero() == p
    assert p * WeightedPoly.one() == p
    assert (p * 0).is_zero()
    assert p / Fraction(1, 2) == p * 2


def test_poly_eval_numeric():
    l2, l6 = WeightedPoly.gen(2), WeightedPoly.gen(6)
    p = l2 * l2 - 3 * l6
    assert p.eval_numeric({2: 2.0, 6: 1.0}) == pytest.approx(1.0)
    # absent subscripts evaluate to zero
    assert p.eval_numeric({2: 5.0}) == pytest.approx(25.0)


@st.composite
def weighted_polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        key = tuple(
            sorted(
                draw(
                    st.dictionaries(
                        st.integers(1, 6), st.integers(1, 3), max_size=2
                    )
                ).items()
            )
        )
        terms[key] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return WeightedPoly(terms)


@given(weighted_polys(), weighted_polys(), weighted_polys())
@settings(max_examples=60, deadline=None)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# --- LaurentSeries construction and access ---

def test_series_normalization_and_access():
    s = LaurentSeries.from_terms({-2: 1, 0: Fraction(1, 3)}, 4)
    assert s.low == -2 and s.trunc == 4
    assert len(s.coeffs) == 6
    assert s.coeff(-2) == WeightedPoly.one()
    assert s.coeff(-1).is_zero()
    assert s.coeff(-7).is_zero()  # below low: provably zero
    with pytest.raises(TruncationTooShallow):
        s.coeff(4)


def test_zero_series_shape():
    z = LaurentSeries.zero(5)
    assert z.is_zero() and z.low == 5 and z.trunc == 5
    s = LaurentSeries.from_terms({2: 0}, 5)
    assert s.is_zero() and s.low == 5


def test_series_add_truncation():
    a = LaurentSeries.from_terms({-1: 1}, 3)
    b = LaurentSeries.from_terms({0: 2}, 6)
    assert (a + b).trunc == 3
    assert (a + b).coeff(0) == WeightedPoly.const(2)


def test_series_mul_truncation_rule():
    # known orders: trunc(ab) = min(low_a + trunc_b, low_b + trunc_a)
    a = LaurentSeries.from_terms({-2: 1, 1: 1}, 4)
    b = LaurentSeries.from_terms({3: 5}, 9)
    ab = a * b
    assert ab.trunc == min(-2 + 9, 3 + 4)
    assert ab.coeff(1) == WeightedPoly.const(5)
    z = LaurentSeries.zero(3) * b
    assert z.is_zero() and z.trunc == 3 + 3


def test_series_mul_oracle_small():
    # (1 + xi)(1 - xi) = 1 - xi^2
    one_plus = LaurentSeries.from_terms({0: 1, 1: 1}, 8)
    one_minus = LaurentSeries.from_terms({0: 1, 1: -1}, 8)
    prod = one_plus * one_minus
    assert prod.coeff(0) == 1 and prod.coeff(1).is_zero()
    assert prod.coeff(2) == WeightedPoly.const(-1)


def test_series_shift_and_pow():
    s = LaurentSeries.from_terms({0: 1, 1: 1}, 6)
    assert s.shift(-3).low == -3
    cube = s ** 3
    assert cube.coeff(2) == WeightedPoly.const(3)  # binomial
    assert (s ** 0).coeff(0) == 1


# --- inversion oracle: geometric series ---

def test_invert_geometric_oracle():
    # 1/(xi + xi^2) = xi^-1 (1/(1+xi)) = xi^-1 - 1 + xi - xi^2 + ...
    s = LaurentSeries.from_terms({1: 1, 2: 1}, 9)
    inv = s.invert()
    assert inv.low == -1
    for k in range(inv.low, inv.trunc):
        assert inv.coeff(k) == WeightedPoly.const((-1) ** (k + 1))
    prod = s * inv
    assert prod.coeff(0) == 1
    for e, c in prod.items():
        assert e == 0


def test_invert_rejects_symbolic_lead():
    lead = WeightedPoly.gen(2)
    s = LaurentSeries.from_terms({0: lead, 1: 1}, 5)
    with pytest.raises(NonUnitLeadingCoefficient):
        s.invert()
    with pytest.raises(NonUnitLeadingCoefficient):
        LaurentSeries.zero(4).invert()


def test_invert_with_symbolic_tail():
    l2 = WeightedPoly.gen(2)
    s = LaurentSeries.from_terms({0: 1, 2: l2}, 7)
    inv = s.invert()
    assert inv.coeff(2) == -l2
    assert inv.coeff(4) == l2 * l2
    assert (s * inv).coeff(0) == 1


# --- calculus ---

def test_integrate_termwise_oracle():
    l3 = WeightedPoly.gen(3)
    s = LaurentSeries.from_terms({-3: 6, 0: l3, 2: 1}, 5)
    u = s.integrate()
    assert u.coeff(-2) == WeightedPoly.const(-3)
    assert u.coeff(1) == l3
    assert u.coeff(3) == WeightedPoly.const(Fraction(1, 3))
    assert u.coeff(0).is_zero()  # integration constant pinned to zero
    assert u.trunc == 6


def test_integrate_residue_obstruction():
    s = LaurentSeries.from_terms({-1: 1, 0: 1}, 4)
    with pytest.raises(ResidueObstruction):
        s.integrate()


def test_differentiate_inverts_integrate():
    s = LaurentSeries.from_terms({-4: 2, -2: 3, 1: Fraction(5, 7)}, 6)
    again = s.integrate().differentiate()
    for e in range(s.low, s.trunc):
        assert again.coeff(e) == s.coeff(e)


def test_residue():
    assert LaurentSeries.from_terms({-2: 1, -1: 7, 3: 1}, 5).residue() == 7
    # series starting above xi^-1 has residue exactly zero
    assert LaurentSeries.from_terms({0: 1}, 3).residue().is_zero()
    assert LaurentSeries.from_terms({-2: 1}, 0).residue().is_zero()
    with pytest.raises(TruncationTooShallow):
        LaurentSeries.from_terms({-4: 1}, -2).residue()


@st.composite
def laurent_series(draw):
    low = draw(st.integers(-4, 2))
    rel = draw(st.integers(1, 6))
    coeffs = [
        WeightedPoly.const(Fraction(draw(st.integers(-6, 6))))
        for _ in range(rel)
    ]
    return LaurentSeries(low, coeffs, low + rel)


@given(laurent_series(), laurent_series())
@settings(max_examples=60, deadline=None)
def test_series_commutativity(a, b):
    assert a * b == b * a
    assert a + b == b + a


@given(laurent_series())
@settings(max_examples=60, deadline=None)
def test_series_invert_roundtrip(s):
    if s.is_zero() or not s.leading()[1].is_constant():
        return
    prod = s * s.invert()
    assert prod.coeff(0) == 1
    assert all(e == 0 for e, _ in prod.items())


@st.composite
def truncated_series(draw):
    """A series with symbolic coefficients, possibly zero, truncated anywhere."""
    low = draw(st.integers(-6, 3))
    coeffs = draw(st.lists(weighted_polys(), max_size=6))
    return LaurentSeries(low, coeffs, low + len(coeffs))


@given(truncated_series(), truncated_series())
@settings(max_examples=200, deadline=None)
def test_residue_of_product_matches_product(a, b):
    try:
        expected = (a * b).residue()
    except TruncationTooShallow:
        with pytest.raises(TruncationTooShallow):
            residue_of_product(a, b)
    else:
        assert residue_of_product(a, b) == expected
