"""Series data at infinity: branch solve, differential bases, residue pairing.

The coefficient tables asserted here were derived by hand for each family
and double-checked against the worked low-genus examples; they are written
with symbolic lambda so every identity is exact.
"""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from test_abelian import small_families
from nscurves.algebra import LaurentSeries, WeightedPoly, residue_of_product
from nscurves.curves import CurveFamily, EntireRationalFn, admissible_indices, make_family
from nscurves.errors import (
    AsymmetricGaps,
    NonUnitLeadingCoefficient,
    ResidueObstruction,
    ZetaLeakage,
)
from nscurves.abelian import build_inversion_system
from nscurves.expansions import (
    FirstKindBasis,
    SecondKindBasis,
    associated_second_kind,
    check_rcond,
    expand_at_infinity,
    first_kind_basis,
    second_kind_count,
)

L = WeightedPoly.gen
ONE = WeightedPoly.one()
ZERO = WeightedPoly.zero()


def chart_for(n, s, order=10, extended=False):
    return expand_at_infinity(make_family(n, s, extended=extended), order)


# -- the branch at infinity --------------------------------------------------


@pytest.mark.parametrize("n,s", [(2, 5), (3, 4), (3, 5), (4, 7), (5, 8)])
def test_h_satisfies_transformed_equation(n, s):
    # independent residual check: -h^n + 1 + sum lambda_k xi^k h^j = 0
    chart = chart_for(n, s)
    fam, h = chart.fam, chart.h_powers[1]
    residual = LaurentSeries.one(chart.order) - h ** n
    for k, j, _, value in fam.lambda_terms():
        residual = residual + (h ** j).shift(k).scale(value).truncated(chart.order)
    assert residual.is_zero()


@st.composite
def rational_families(draw):
    """One of the golden shapes with small-height rational lambda."""
    n, s, ext = draw(st.sampled_from(GOLDEN_FAMILIES))
    values = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    lam = {k: draw(values) for k in admissible_indices(n, s, ext)}
    return make_family(n, s, lam, extended=ext)


@given(rational_families(), st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_branch_recursion_satisfies_equation(fam, order):
    # checked with plain series products and powers, not with the recursion
    chart = expand_at_infinity(fam, order)
    n, h = fam.n, chart.h_powers[1]
    assert h.leading() == (0, ONE) and h.trunc == order
    residual = LaurentSeries.one(order) - h ** n
    dy = (h ** (n - 1)).scale(-n)
    for k, j, _, value in fam.lambda_terms():
        residual = residual + (h ** j).shift(k).scale(value).truncated(order)
        if j:
            dy = dy + (h ** (j - 1)).shift(k).scale(value * j).truncated(order)
    assert residual.is_zero() and residual.trunc == order
    assert chart.dyf_series == dy.shift(fam.s - n * fam.s)
    assert chart.h_powers == [h ** p for p in range(n)]


@pytest.mark.parametrize("n,s", [(2, 5), (3, 7), (4, 5), (5, 9)])
def test_chart_forms_each_product_on_first_read(n, s):
    chart = chart_for(n, s)
    for j in reversed(range(n)):
        assert j not in chart._hj_dxdyf
        mono = chart.fam.monomial_of_weight(j * s + n)  # y^j x
        direct = (chart.h_powers[j] * chart.dxdyf_series).shift(-j * s - n)
        assert chart.mono_dxdyf(mono) == direct
        assert set(chart._hj_dxdyf) == set(range(j, n))
        formed = chart._hj_dxdyf[j]
        assert chart.mono_dxdyf(mono) == direct
        assert chart._hj_dxdyf[j] is formed  # read again, not formed again


@pytest.mark.parametrize("n,s", [(2, 5), (3, 7), (4, 5), (5, 9)])
def test_chart_leading_terms(n, s):
    chart = chart_for(n, s)
    g = chart.fam.genus
    assert chart.x_series.leading() == (-n, ONE)
    assert chart.y_series.leading() == (-s, ONE)
    assert chart.dxdyf_series.leading() == (2 * g - 2, ONE)


def test_default_order_is_the_level_count():
    for n, s in [(2, 5), (3, 4), (5, 9)]:
        fam = make_family(n, s)
        assert expand_at_infinity(fam).order == second_kind_count(fam)


def test_order_too_small_rejected():
    with pytest.raises(ValueError):
        expand_at_infinity(make_family(3, 4), 1)


# -- Puiseux coefficients, one table per family ------------------------------


def assert_h_prefix(chart, expected):
    for exponent, value in enumerate(expected):
        assert chart.h_powers[1].coeff(exponent) == value, f"xi^{exponent}"


@pytest.mark.parametrize("s", [4, 7])
def test_puiseux_trigonal_3m1(s):
    expected = [ONE, ZERO, L(2) / 3, ZERO, ZERO, L(5) / 3]
    assert_h_prefix(chart_for(3, s), expected)


@pytest.mark.parametrize("s", [5, 8])
def test_puiseux_trigonal_3m2(s):
    expected = [ONE, L(1) / 3, ZERO, L(1) ** 3 / -81]
    assert_h_prefix(chart_for(3, s), expected)


def test_puiseux_tetragonal_4m1():
    expected = [ONE, ZERO, L(2) / 4, L(3) / 4, L(2) ** 2 / 32, ZERO]
    assert_h_prefix(chart_for(4, 5), expected)


def test_puiseux_tetragonal_4m3():
    expected = [ONE, L(1) / 4, L(2) / 4 - L(1) ** 2 / 32, ZERO]
    assert_h_prefix(chart_for(4, 7), expected)


def test_puiseux_pentagonal_5m1():
    expected = [ONE, ZERO, L(2) / 5, L(3) / 5, L(4) / 5 + L(2) ** 2 / 25]
    assert_h_prefix(chart_for(5, 6), expected)


def test_puiseux_pentagonal_5m2():
    expected = [
        ONE,
        L(1) / 5,
        ZERO,
        L(3) / 5 - L(1) ** 3 / 125,
        L(4) / 5 - L(1) * L(3) / 25 + L(1) ** 4 / 625,
    ]
    assert_h_prefix(chart_for(5, 7), expected)


def test_puiseux_pentagonal_5m3():
    expected = [
        ONE,
        L(1) / 5,
        L(2) / 5 + L(1) ** 2 / 25,
        ZERO,
        L(4) / 5 - L(2) ** 2 / 25 - L(1) ** 2 * L(2) * F(3, 125)
        - L(1) ** 4 * F(2, 625),
    ]
    assert_h_prefix(chart_for(5, 8), expected)


def test_puiseux_pentagonal_5m4():
    expected = [
        ONE,
        L(1) / 5,
        L(2) / 5 - L(1) ** 2 / 25,
        L(3) / 5 - L(2) * L(1) / 25 + L(1) ** 3 / 125,
        ZERO,
    ]
    assert_h_prefix(chart_for(5, 9), expected)


# -- first kind differentials ------------------------------------------------

GOLDEN_FAMILIES = [
    (2, 5, False),
    (2, 7, False),
    (2, 9, False),
    (3, 4, False),
    (3, 4, True),
    (3, 5, False),
    (3, 7, False),
    (3, 8, False),
    (4, 5, False),
    (4, 7, False),
    (5, 6, False),
    (5, 7, False),
    (5, 8, False),
    (5, 9, False),
]


@pytest.mark.parametrize("n,s,ext", GOLDEN_FAMILIES)
def test_first_kind_normalization(n, s, ext):
    chart = chart_for(n, s, extended=ext)
    first = first_kind_basis(chart)
    g = chart.fam.genus
    assert len(first.gaps) == g
    for w, mono, du in zip(first.gaps, first.numerators, first.du_series):
        assert mono.sato_weight == 2 * g - 1 - w
        assert du.leading() == (w - 1, ONE)


def test_dxdyf_lead_off_unit_is_a_typed_error(monkeypatch):
    # dx/f_y is dx times the inverse of f_y: double the inverse
    invert = LaurentSeries.invert
    monkeypatch.setattr(LaurentSeries, "invert", lambda self: invert(self).scale(2))
    message = r"^dx/f_y leads with \(2\) xi\^2, not xi\^2$"
    with pytest.raises(NonUnitLeadingCoefficient, match=message):
        expand_at_infinity(make_family(2, 5), 4)


def test_missing_first_kind_numerator_is_a_typed_error(monkeypatch):
    chart = chart_for(3, 4)
    monkeypatch.setattr(CurveFamily, "monomial_of_weight", lambda self, w: None)
    with pytest.raises(AsymmetricGaps, match="^gap 1 has no monomial of weight 4$"):
        first_kind_basis(chart)


@pytest.mark.parametrize(
    "distort, message",
    [
        (lambda du: du.scale(2), r"^du_1 leads with \(2\) xi\^0, not xi\^0$"),
        (lambda du: du.shift(1), r"^du_1 leads with \(1\) xi\^1, not xi\^0$"),
    ],
    ids=["lead-2", "lead-exponent-1"],
)
def test_first_kind_lead_off_unit_is_a_typed_error(monkeypatch, distort, message):
    chart = chart_for(2, 5)
    mono_dxdyf = chart.mono_dxdyf
    monkeypatch.setattr(chart, "mono_dxdyf", lambda mono: distort(mono_dxdyf(mono)))
    with pytest.raises(NonUnitLeadingCoefficient, match=message):
        first_kind_basis(chart)


@given(small_families())
@settings(max_examples=60, deadline=None)
def test_gap_and_lead_checks_never_fire(fam):
    # the raises above guard what every (n, s) and lambda satisfy
    n, s = fam.n, fam.s
    assert len(fam.gaps) == fam.genus
    chart = expand_at_infinity(fam)
    first = first_kind_basis(chart)
    assert chart.dxdyf_series.leading() == (n * s - n - s - 1, ONE)
    assert [du.leading() for du in first.du_series] == [(w - 1, ONE) for w in fam.gaps]


def test_first_kind_integrates_only_the_gaps_a_derivation_reads(monkeypatch):
    # u_w is integrated on first read; a (5,9) derivation reads 3 of 16 gaps
    integrated, read = [], []
    integrate, u_of_gap = LaurentSeries.integrate, FirstKindBasis.u_of_gap

    def spy_integrate(series):
        integrated.append(series)
        return integrate(series)

    def spy_u_of_gap(first, w):
        read.append(w)
        return u_of_gap(first, w)

    monkeypatch.setattr(LaurentSeries, "integrate", spy_integrate)
    monkeypatch.setattr(FirstKindBasis, "u_of_gap", spy_u_of_gap)
    first = build_inversion_system(make_family(5, 9, "sym")).first
    gap_of = {id(du): w for w, du in zip(first.gaps, first.du_series)}
    integrated_gaps = [gap_of[id(s)] for s in integrated if id(s) in gap_of]
    assert len(first.gaps) == 16
    assert sorted(integrated_gaps) == sorted(set(read)) == [1, 2, 3]
    monkeypatch.undo()
    assert first.u_series == [du.integrate() for du in first.du_series]
    assert [first.u_of_gap(w) for w in first.gaps] == first.u_series


def test_first_kind_subleading_4m3():
    # du on the gap-1 numerator: 1 - (l1/2) xi - (l2/4 - 5 l1^2/32) xi^2 + ...
    first = first_kind_basis(chart_for(4, 7))
    du = first.du_series[first.gaps.index(1)]
    assert du.coeff(1) == L(1) / -2
    assert du.coeff(2) == -(L(2) / 4 - L(1) ** 2 * F(5, 32))


def test_first_kind_subleading_5m1():
    # gap-1 numerator y^3: 1 + (2 l2/5) xi^2 + (l3/5) xi^3 + 0 xi^4 + ...
    first = first_kind_basis(chart_for(5, 6))
    du = first.du_series[first.gaps.index(1)]
    assert du.coeff(1) == ZERO
    assert du.coeff(2) == L(2) * F(2, 5)
    assert du.coeff(3) == L(3) / 5
    assert du.coeff(4) == ZERO


def test_first_kind_subleading_5m4():
    # gap-1 numerator x^6: 1 - (3 l1/5) xi - (2 l2/5 - 7 l1^2/25) xi^2
    #                        - (l3/5 - 6 l1 l2/25 + 11 l1^3/125) xi^3 + ...
    first = first_kind_basis(chart_for(5, 9))
    du = first.du_series[first.gaps.index(1)]
    assert du.coeff(1) == L(1) * F(-3, 5)
    assert du.coeff(2) == -(L(2) * F(2, 5) - L(1) ** 2 * F(7, 25))
    assert du.coeff(3) == -(
        L(3) / 5 - L(1) * L(2) * F(6, 25) + L(1) ** 3 * F(11, 125)
    )


# -- second kind differentials -----------------------------------------------


def entire(fam, table):
    """table: {label: WeightedPoly-ish}; build on the label basis."""
    coeffs = {}
    for label, value in table.items():
        if not isinstance(value, WeightedPoly):
            value = WeightedPoly.const(value)
        coeffs[fam.monomial_of_label(label)] = value
    return EntireRationalFn(coeffs)


CORRECTED_NUMERATORS = {
    (2, 5, False): [{1: 1}, {2: 2}],
    (2, 7, False): [{1: 1}, {2: 2}],
    (2, 9, False): [{1: 1}, {2: 2}],
    (3, 4, False): [{1: 1}, {2: 2}],
    (3, 4, True): [{1: 1}, {2: 2, 1: -L(1)}],
    (3, 5, False): [{1: 1}, {2: 2, 1: L(1)}],
    (3, 7, False): [{1: 1}, {2: 2}],
    (3, 8, False): [{1: 1}, {2: 2, 1: L(1)}],
    (4, 5, False): [{1: 1}, {2: 2}, {3: 3, 1: -L(2)}],
    (4, 7, False): [{1: 1}, {2: 2, 1: L(1)}, {3: 3, 2: L(1) * 2, 1: L(2)}],
    (5, 6, False): [
        {1: 1},
        {2: 2},
        {3: 3, 1: -L(2)},
        {4: 4, 2: L(2) * -2, 1: -L(3)},
    ],
    (5, 7, False): [
        {1: 1},
        {2: 2, 1: L(1)},
        {3: 3, 2: -L(1)},
        {4: 4, 3: L(1) * 2, 1: L(3) * 2},
    ],
    (5, 8, False): [
        {1: 1},
        {2: 2, 1: -L(1)},
        {3: 3, 2: L(1), 1: L(2) * 2},
        {4: 4, 3: L(1) * -2, 2: L(2) * 2, 1: -L(1) * L(2)},
    ],
    (5, 9, False): [
        {1: 1},
        {2: 2, 1: L(1)},
        {3: 3, 2: L(1) * 2, 1: L(2)},
        {4: 4, 3: L(1) * 3, 2: L(2) * 2, 1: L(3)},
    ],
}


@pytest.mark.parametrize("n,s,ext", GOLDEN_FAMILIES)
def test_corrected_numerators_exact(n, s, ext):
    chart = chart_for(n, s, extended=ext)
    fam = chart.fam
    second = associated_second_kind(chart, first_kind_basis(chart))
    expected = CORRECTED_NUMERATORS[(n, s, ext)]
    assert len(second.numerators) == second_kind_count(fam) == len(expected)
    for got, table in zip(second.numerators, expected):
        assert got == entire(fam, table)


PRINCIPAL_PARTS = {
    # level -> {exponent: coefficient}; only the pole part is normalized
    (3, 4): {2: {-2: -ONE, -1: ZERO}},
    (3, 5): {2: {-2: -ONE, -1: -L(1) / 3}},
    (4, 7): {
        2: {-2: -ONE, -1: -L(1) / 2},
        3: {-3: -ONE, -2: -L(1) / 4, -1: -(L(2) * 8 - L(1) ** 2) / 32},
    },
    (5, 6): {
        3: {-3: -ONE, -2: ZERO, -1: L(2) * F(2, 5)},
        4: {-4: -ONE, -3: ZERO, -2: L(2) / 5, -1: L(3) / 5},
    },
    (5, 7): {
        2: {-2: -ONE, -1: -L(1) / 5},
        3: {-3: -ONE, -2: L(1) / 5, -1: -(L(1) ** 2) / 25},
        4: {
            -4: -ONE,
            -3: L(1) * F(-2, 5),
            -2: -(L(1) ** 2) / 25,
            -1: (L(3) / 5 - L(1) ** 3 / 125) * -2,
        },
    },
    (5, 8): {
        4: {
            -4: -ONE,
            -3: L(1) * F(2, 5),
            -2: -(L(2) * F(3, 5) + L(1) ** 2 / 25),
            -1: -(L(2) * L(1) / 25 + L(1) ** 3 * F(2, 125)),
        },
    },
    (5, 9): {
        4: {
            -4: -ONE,
            -3: -L(1) / 5,
            -2: -(L(2) / 5 - L(1) ** 2 / 25),
            -1: -(L(3) / 5 - L(2) * L(1) / 25 + L(1) ** 3 / 125),
        },
    },
}


@pytest.mark.parametrize("n,s", sorted(PRINCIPAL_PARTS))
def test_second_kind_principal_parts(n, s):
    chart = chart_for(n, s)
    second = associated_second_kind(chart, first_kind_basis(chart))
    for level, pole in PRINCIPAL_PARTS[(n, s)].items():
        r = second.r_series[level - 1]
        for exponent, value in pole.items():
            assert r.coeff(exponent) == value, (level, exponent)


@pytest.mark.parametrize("n,s,ext", GOLDEN_FAMILIES)
def test_residue_pairing_identity(n, s, ext):
    chart = chart_for(n, s, extended=ext)
    first = first_kind_basis(chart)
    second = associated_second_kind(chart, first)
    matrix = check_rcond(first, second)
    for i, w in enumerate(first.gaps):
        for l in range(len(second.dr_series)):
            expected = ONE if w == l + 1 else ZERO
            assert matrix[i][l] == expected, (w, l + 1)


def test_uncorrected_candidate_fails_pairing():
    # dropping the correction on the level-3 candidate of (4,5) leaves a
    # nonzero residue against u_1
    chart = chart_for(4, 5)
    first = first_kind_basis(chart)
    raw = chart.mono_dxdyf(chart.fam.monomial_of_label(3)).scale(3)
    mismatch = residue_of_product(first.u_of_gap(1), raw)
    assert mismatch == L(2)


def test_wrong_normalization_leaks():
    # a mis-scaled second-kind integral changes the zeta content of the
    # inversion relations, which the derivation refuses to accept
    from nscurves.abelian import log_sigma_derivative_expansion, zeta_relations

    chart = chart_for(3, 4)
    first = first_kind_basis(chart)
    second = associated_second_kind(chart, first)
    tampered = SecondKindBasis(
        chart.fam,
        second.numerators,
        second.dr_series,
        [second.r_series[0], second.r_series[1].scale(WeightedPoly.const(2))],
    )
    expansion = log_sigma_derivative_expansion(first, 1)
    with pytest.raises(ZetaLeakage):
        zeta_relations(tampered, expansion)


def test_single_pole_forces_zero_residue():
    # every corrected dr has vanishing plain residue, so integration works;
    # a series with a genuine xi^-1 term must refuse instead
    chart = chart_for(5, 8)
    second = associated_second_kind(chart, first_kind_basis(chart))
    for dr in second.dr_series:
        assert dr.coeff(-1) == ZERO
    bad = LaurentSeries.monomial(-1, 1, 3)
    with pytest.raises(ResidueObstruction):
        bad.integrate()
