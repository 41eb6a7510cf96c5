"""Series expansions in the local parameter at the place at infinity.

With x = xi^-n and y = xi^-s h(xi), the curve equation becomes

    -h^n + 1 + sum_k lambda_k xi^k h^(j_k) = 0,        h(0) = 1.

Every k is at least 1, so the xi^m coefficient of the left side is -n h_m
plus terms in h_1 .. h_(m-1) only.  The branch is therefore solved in one
pass over m: keep the coefficient tables of h^p for p = 0 .. n, form their
xi^m entries with h_m still 0, read h_m off the equation, and add p h_m to
each [h^p]_m.  The same tables give df/dy and the pullbacks of y^j.

Everything else is series bookkeeping on top of h: each basis monomial
y^j x^i pulls back to xi^(-weight) h^j, the form dx/(df/dy) pulls back to
xi^(2g-1) (1 + ...) dxi, and the two differential bases are

    du_w  = M_(2g-1-w) dx/(df/dy) = xi^(w-1) (1 + ...) dxi,   w a gap,
    dr_l  = (l M_l + corrections) dx/(df/dy) = l xi^(-l-1) (1 + ...) dxi.

The corrections, supported on monomials of lower label, are fixed by the
residue pairing: res(u_w dr_l) must vanish for every gap w < l.  Solving for
them is triangular because adding M_kappa only disturbs residues against
gaps w <= kappa.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import ONE, ZERO, LaurentSeries, WeightedPoly, residue_of_product
from .curves import CurveFamily, EntireRationalFn, Monomial
from .errors import AsymmetricGaps, NonUnitLeadingCoefficient, UnsolvableCorrection


def second_kind_count(fam: CurveFamily) -> int:
    """The level count c: 2 when n = 2, else n - 1.

    c is also the one truncation depth chosen by default: the shallowest
    relative order the inversion derivation can run at.  The derivation reads
    the series only through T_0 .. T_(c-1) and the coefficients of r_l at
    xi^(-1-p) for p < c.  At relative order c, du_1 is known through xi^(c-1),
    which covers T_(c-1).  Each dr_l, with its lead at xi^(-l-1), is known
    below xi^(c-l-1).  So r_l is known below xi^(c-l), which covers xi^-1.  The
    pairing residues res(u_w dr_l), w < l <= c, are known as well.  The
    deepest of these, w = 1 and l = c, needs exactly order c.  Deeper
    coefficients are never read.

    Every `LaurentSeries` carries its provable truncation.  So an order below
    this one raises `TruncationTooShallow` and never yields a different
    system.  The top dr_c is known only below xi^-1.  `integrate` reads its
    unknown residue as zero, which is exact: a differential whose only pole
    is at infinity has zero residue there.
    """
    return 2 if fam.n == 2 else fam.n - 1


@dataclass
class InfinityChart:
    """Cached series data of one family at one truncation order."""

    fam: CurveFamily
    order: int
    x_series: LaurentSeries
    y_series: LaurentSeries
    dyf_series: LaurentSeries
    dxdyf_series: LaurentSeries
    h_powers: list[LaurentSeries]  # h^0 .. h^(n-1)
    _hj_dxdyf: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def mono_dxdyf(self, mono: Monomial) -> LaurentSeries:
        """The pullback of y^j x^i dx/(df/dy), per dxi."""
        if mono.j not in self._hj_dxdyf:
            self._hj_dxdyf[mono.j] = self.h_powers[mono.j] * self.dxdyf_series
        return self._hj_dxdyf[mono.j].shift(-mono.j * self.fam.s - mono.i * self.fam.n)


def expand_at_infinity(fam: CurveFamily, order: int | None = None) -> InfinityChart:
    """Solve the branch at infinity to the given relative order.

    The default order is the level count `second_kind_count(fam)`, all that a
    derivation reads; a display may ask for more.
    """
    if order is None:
        order = second_kind_count(fam)
    if order < 2:
        raise ValueError("expansion order must be at least 2")
    n, s = fam.n, fam.s
    lam = fam.exact_lambda()
    terms = [(k, j, lam[k]) for k, j, _, _ in fam.lambda_terms()]

    # powers[p][t] is the xi^t coefficient of h^p, for p = 0 .. n
    powers = [[ONE] for _ in range(n + 1)]
    h = powers[1]
    for m in range(1, order):
        # [h^p]_m = p h_m + rest[p], where rest[0] = rest[1] = 0 and
        # rest[p] = rest[p-1] + sum_(0<i<m) h_i [h^(p-1)]_(m-i)
        rest = [ZERO, ZERO]
        for p in range(2, n + 1):
            acc, lower = rest[p - 1], powers[p - 1]
            for i in range(1, m):
                if h[i] and lower[m - i]:
                    acc = acc + h[i] * lower[m - i]
            rest.append(acc)
        # the xi^m coefficient of the branch equation, with every k >= 1
        drive = -rest[n]
        for k, j, value in terms:
            if k <= m and powers[j][m - k]:
                drive = drive + value * powers[j][m - k]
        h_m = drive / n
        for p, coeffs in enumerate(powers):
            coeffs.append(rest[p] + h_m * p)

    # df/dy = xi^(s-ns) * (the h-derivative of the transformed equation)
    dyf = [c * -n for c in powers[n - 1]]
    for k, j, value in terms:
        if j:
            factor, lower = value * j, powers[j - 1]
            for t in range(k, order):
                if lower[t - k]:
                    dyf[t] = dyf[t] + lower[t - k] * factor
    h_powers = [LaurentSeries(0, coeffs, order) for coeffs in powers[:n]]
    x_series = LaurentSeries.monomial(-n, 1, -n + order)
    y_series = h_powers[1].shift(-s)
    dyf_series = LaurentSeries(0, dyf, order).shift(s - n * s)
    dx_series = LaurentSeries.monomial(-n - 1, -n, -n - 1 + order)
    dxdyf_series = dx_series * dyf_series.invert()
    lead_exp, lead = dxdyf_series.leading()
    expected = n * s - n - s - 1
    if lead_exp != expected or lead != ONE:
        raise NonUnitLeadingCoefficient(
            f"dx/f_y leads with ({lead.to_text()}) xi^{lead_exp}, not xi^{expected}"
        )
    return InfinityChart(
        fam, order, x_series, y_series, dyf_series, dxdyf_series, h_powers
    )


@dataclass
class FirstKindBasis:
    """Holomorphic differentials du_w, one per gap, normalized at infinity.

    Each u_w is integrated the first time it is read: a derivation reads it
    only for gaps below its level count.
    """

    fam: CurveFamily
    gaps: tuple[int, ...]
    numerators: list[Monomial]
    du_series: list[LaurentSeries]
    _u: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def u_of_gap(self, w: int) -> LaurentSeries:
        if w not in self._u:
            self._u[w] = self.du_series[self.gaps.index(w)].integrate()
        return self._u[w]

    @property
    def u_series(self) -> list[LaurentSeries]:
        return [self.u_of_gap(w) for w in self.gaps]


def first_kind_basis(chart: InfinityChart) -> FirstKindBasis:
    fam = chart.fam
    numerators, du_series = [], []
    for w in fam.gaps:
        mono = fam.monomial_of_weight(2 * fam.genus - 1 - w)
        if mono is None:
            raise AsymmetricGaps(f"gap {w} has no monomial of weight {2 * fam.genus - 1 - w}")
        du = chart.mono_dxdyf(mono)
        exp, lead = du.leading()
        if exp != w - 1 or lead != ONE:
            raise NonUnitLeadingCoefficient(
                f"du_{w} leads with ({lead.to_text()}) xi^{exp}, not xi^{w - 1}"
            )
        numerators.append(mono)
        du_series.append(du)
    return FirstKindBasis(fam, fam.gaps, numerators, du_series)


@dataclass
class SecondKindBasis:
    """Second-kind differentials dr_l with poles only at infinity.

    Numerator l carries leading term l M_l; corrections on lower labels
    enforce res(u_w dr_l) = 0 for gaps w < l.  The list has n-1 entries,
    except n = 2 where two are needed.
    """

    fam: CurveFamily
    numerators: list[EntireRationalFn]
    dr_series: list[LaurentSeries]
    r_series: list[LaurentSeries]


def associated_second_kind(
    chart: InfinityChart, first: FirstKindBasis
) -> SecondKindBasis:
    fam = chart.fam
    numerators, dr_series, r_series = [], [], []
    for level in range(1, second_kind_count(fam) + 1):
        coeffs: dict[Monomial, WeightedPoly] = {}
        mono = fam.monomial_of_label(level)
        coeffs[mono] = WeightedPoly.const(level)
        dr = chart.mono_dxdyf(mono).scale(level)
        # residues against gaps w > kappa are blind to an M_kappa correction,
        # so sweeping kappa = level-1 .. 1 never disturbs a solved condition
        for w in range(level - 1, 0, -1):
            u_w = first.u_of_gap(w)
            basis_mono = fam.monomial_of_label(w)
            unit = residue_of_product(u_w, chart.mono_dxdyf(basis_mono))
            if unit != WeightedPoly.const(Fraction(1, w)):
                raise UnsolvableCorrection(
                    f"diagonal residue for label {w} is {unit.to_text()}, not 1/{w}"
                )
            mismatch = residue_of_product(u_w, dr)
            if mismatch.is_zero():
                continue
            fix = mismatch * WeightedPoly.const(-w)
            coeffs[basis_mono] = fix
            dr = dr + chart.mono_dxdyf(basis_mono).scale(fix)
        numerators.append(EntireRationalFn(coeffs))
        dr_series.append(dr)
        # res(dr) = 0 is forced (single pole), so integrate() may read it as
        # zero where dr is truncated at xi^-1, as the top dr is at the default order
        r_series.append(dr.integrate())
    return SecondKindBasis(fam, numerators, dr_series, r_series)


def check_rcond(
    first: FirstKindBasis, second: SecondKindBasis
) -> list[list[WeightedPoly]]:
    """The full residue pairing matrix: rows gaps, columns dr levels.

    Row i, column l holds res(u_(w_i) dr_(l+1)); the first columns of the
    identity matrix certify the normalization.
    """
    return [
        [residue_of_product(u, dr) for dr in second.dr_series]
        for u in first.u_series
    ]
