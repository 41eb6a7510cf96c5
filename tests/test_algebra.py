"""Exact algebra layer: oracles, ring axioms, truncation semantics."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from nscurves.algebra import (
    LaurentSeries,
    WeightedPoly,
    residue_of_product,
    signed_sum_text,
)
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


# --- integer numerators over one denominator, against a Fraction-dict oracle ---

class FractionPoly:
    """The reference: WeightedPoly as one Fraction per term, no shared denominator."""

    def __init__(self, terms=None):
        self.terms = {key: Fraction(c) for key, c in (terms or {}).items() if c}

    def __add__(self, other):
        terms = dict(self.terms)
        for key, c in other.terms.items():
            acc = terms.get(key, Fraction(0)) + c
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
        return FractionPoly(terms)

    def __neg__(self):
        return FractionPoly({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                exps = dict(ka)
                for k, e in kb:
                    exps[k] = exps.get(k, 0) + e
                key = tuple(sorted(exps.items()))
                acc = terms.get(key, Fraction(0)) + ca * cb
                if acc:
                    terms[key] = acc
                else:
                    terms.pop(key, None)
        return FractionPoly(terms)

    def __truediv__(self, q):
        return FractionPoly({key: c / q for key, c in self.terms.items()})

    def __pow__(self, n):
        out = FractionPoly({(): 1})
        for _ in range(n):
            out = out * self
        return out

    def constant_value(self):
        return self.terms.get((), Fraction(0))

    def sorted_terms(self):
        return sorted(self.terms.items())

    def to_text(self):
        chunks = []
        for key, coeff in self.sorted_terms():
            factors = "*".join(f"l{k}" + (f"^{e}" if e > 1 else "") for k, e in key)
            if not factors:
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append(factors)
            elif coeff == -1:
                chunks.append(f"-{factors}")
            else:
                chunks.append(f"{coeff}*{factors}")
        return signed_sum_text(chunks)

    def eval_numeric(self, lam):
        total = 0j
        for key, coeff in self.terms.items():
            value = complex(coeff)
            for k, e in key:
                value *= complex(lam.get(k, 0)) ** e
            total += value
        return total


def assert_canonical(p):
    """den > 0, no zero numerator, gcd(den, *nums) == 1, den == 1 when zero."""
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n for n in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1


def assert_matches(p, ref, lam):
    """p is canonical and equals the oracle in every reading, eval_numeric to the bit."""
    assert_canonical(p)
    assert dict(p.terms) == ref.terms and len(p.terms) == len(ref.terms)
    assert p == WeightedPoly(ref.terms) and hash(p) == hash(WeightedPoly(ref.terms))
    assert p.sorted_terms() == ref.sorted_terms()
    assert p.sorted_ratios() == [
        (key, q.numerator, q.denominator) for key, q in ref.sorted_terms()
    ]
    assert p.to_text() == ref.to_text()
    assert p.constant_value() == ref.constant_value()
    assert repr(p.eval_numeric(lam)) == repr(ref.eval_numeric(lam))
    if p.is_constant():
        assert p == ref.constant_value() and hash(p) == hash(ref.constant_value())


# numerators and denominators past 2**64, so that no word-size shortcut can hide
rationals = st.builds(
    Fraction,
    st.integers(-9, 9) | st.integers(-(2 ** 70), 2 ** 70),
    st.integers(1, 12) | st.integers(1, 2 ** 70),
)


@st.composite
def poly_terms(draw):
    """Fraction terms of a symbolic polynomial, or of a constant (rational lambda)."""
    keys = st.dictionaries(st.integers(1, 5), st.integers(1, 3), max_size=2).map(
        lambda exps: tuple(sorted(exps.items()))
    )
    if draw(st.booleans()):
        keys = st.just(())
    return draw(st.dictionaries(keys, rationals, max_size=4))


lam_values = st.dictionaries(
    st.integers(1, 5),
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
    max_size=5,
)


@given(poly_terms(), poly_terms(), rationals, st.integers(0, 3), lam_values)
@settings(deadline=None)
def test_poly_matches_fraction_oracle(ta, tb, q, power, lam):
    a, b = WeightedPoly(ta), WeightedPoly(tb)
    ra, rb = FractionPoly(ta), FractionPoly(tb)
    assert_matches(a, ra, lam)
    assert_matches(a + b, ra + rb, lam)
    assert_matches(a - b, ra - rb, lam)
    assert_matches(a * b, ra * rb, lam)
    assert_matches(-a, -ra, lam)
    assert_matches(a ** power, ra ** power, lam)
    assert_matches(a + q, ra + FractionPoly({(): q}), lam)
    assert_matches(q - a, FractionPoly({(): q}) - ra, lam)
    assert_matches(a * q, ra * FractionPoly({(): q}), lam)
    assert_matches(WeightedPoly.const(q), FractionPoly({(): q}), lam)
    if q:
        assert_matches(a / q, ra / q, lam)
        assert_matches(a / -q, ra / -q, lam)
    assert (a == b) == (ra.terms == rb.terms)


@given(poly_terms(), poly_terms(), poly_terms(), rationals.filter(bool), rationals)
@settings(deadline=None)
def test_equal_values_built_in_different_orders_compare_and_hash_equal(
    ta, tb, tc, q, r
):
    a, b, c = WeightedPoly(ta), WeightedPoly(tb), WeightedPoly(tc)
    for left, right in [
        ((a * b) / q, a * (b / q)),
        ((a + b) + c, a + (b + c)),
        ((a * b) * c, a * (b * c)),
        (a * (b + c), a * b + a * c),
        ((a * r) / q, (a / q) * r),
        (a - b, -(b - a)),
    ]:
        assert_canonical(left)
        assert_canonical(right)
        assert left == right and hash(left) == hash(right)


def test_constant_hashes_like_the_rational_it_equals():
    for value in [2, -3, 0, Fraction(1, 2), Fraction(-7, 3)]:
        poly = WeightedPoly.const(value)
        assert poly == value and value == poly
        assert hash(poly) == hash(value)
        assert len({poly, value}) == 1
    assert hash(WeightedPoly.zero()) == hash(0)
    assert WeightedPoly.gen(2) != 0 and WeightedPoly.const(2) != 3


def test_division_by_a_negative_rational_keeps_the_denominator_positive():
    p = (WeightedPoly.gen(1) * 2 + 1) / Fraction(-4, 3)
    assert_canonical(p)
    assert p.den == 4 and p.nums == {(): -3, ((1, 1),): -6}
    assert p.constant_value() == Fraction(-3, 4)


def test_terms_length_builds_no_fraction(monkeypatch):
    # the benchmark tracer reads len(p.terms) on every product
    p = WeightedPoly({((1, 1),): Fraction(1, 3), (): 2})
    monkeypatch.setattr("nscurves.algebra.Fraction", None)
    assert len(p.terms) == 2 and ((1, 1),) in p.terms


@st.composite
def symbolic_series(draw, unit_lead=False):
    """A series with symbolic rational coefficients; a nonzero rational lead if asked."""
    low = draw(st.integers(-4, 3))
    coeffs = [WeightedPoly(draw(poly_terms())) for _ in range(draw(st.integers(1, 5)))]
    if unit_lead:
        coeffs[0] = WeightedPoly.const(draw(rationals.filter(bool)))
    return LaurentSeries(low, coeffs, low + len(coeffs))


def _ref(series):
    """Exponent -> FractionPoly over low .. trunc - 1."""
    return {e: FractionPoly(dict(series.coeff(e).terms)) for e in range(series.low, series.trunc)}


def _assert_series_matches(series, expected, trunc):
    assert series.trunc == trunc
    for e in range(min(series.low, min(expected, default=trunc)), trunc):
        coeff = series.coeff(e)
        assert_canonical(coeff)
        assert dict(coeff.terms) == expected.get(e, FractionPoly()).terms


@given(symbolic_series(unit_lead=True))
@settings(deadline=None)
def test_series_invert_matches_fraction_oracle(s):
    ref = _ref(s)
    v, rel = s.low, s.trunc - s.low
    c0 = ref[v].constant_value()
    inv = [FractionPoly({(): 1 / c0})]
    for k in range(1, rel):
        acc = FractionPoly()
        for j in range(1, k + 1):
            acc = acc + ref[v + j] * inv[k - j]
        inv.append(acc * FractionPoly({(): -1 / c0}))
    _assert_series_matches(s.invert(), {-v + k: c for k, c in enumerate(inv)}, -v + rel)


@given(symbolic_series())
@settings(deadline=None)
def test_series_calculus_matches_fraction_oracle(s):
    ref = _ref(s)
    derivative = {e - 1: c * FractionPoly({(): e}) for e, c in ref.items()}
    _assert_series_matches(s.differentiate(), derivative, s.trunc - 1)
    if s.low <= -1 < s.trunc and s.coeff(-1):
        return
    integral = {e + 1: c / (e + 1) for e, c in ref.items() if e != -1}
    _assert_series_matches(s.integrate(), integral, s.trunc + 1)


@given(symbolic_series(), symbolic_series())
@settings(deadline=None)
def test_residue_of_product_matches_fraction_oracle(a, b):
    if min(a.low + b.trunc, b.low + a.trunc) <= -1:
        return
    ra, rb = _ref(a), _ref(b)
    expected = FractionPoly()
    for t in range(a.low, -b.low):
        expected = expected + ra[t] * rb[-1 - t]
    res = residue_of_product(a, b)
    assert_canonical(res)
    assert dict(res.terms) == expected.terms
