"""Numeric period, theta, and inversion checks on two-sheeted curves."""
import dataclasses
import functools
import math
import operator
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from test_divisors import per_coefficient_system
from nscurves import cli, hyperell
from nscurves.abelian import build_inversion_system
from nscurves.algebra import WeightedPoly, residue_of_product
from nscurves.curves import CurvePoint, make_family
from nscurves.divisors import Divisor, compile_system, make_divisor, rfunctions_from_divisor
from nscurves.errors import (
    BranchCollision,
    ComplexBranchPoints,
    NonFiniteValue,
    NonSymmetricTau,
    NotTwoSheeted,
    NSCurveError,
    OnThetaDivisor,
    QuadratureNotConverged,
    SheetLoss,
    SpecialDivisor,
    UnsupportedGenus,
)
from nscurves.expansions import expand_at_infinity, first_kind_basis
from nscurves.hyperell import (
    _check_riemann_characteristic,
    _dr_numerators,
    _interval_integrals,
    _orient_b_cycles,
    _riemann_characteristic,
    abel_map,
    abel_map_divisor,
    branch_points,
    compute_periods,
    curve_polynomial,
    hyperelliptic_from_branch_points,
    report_payload,
    verify_inversion,
    wp_from_theta,
)
import nscurves.theta as theta_module
from nscurves.theta import (
    THETA_TAIL,
    ThetaContext,
    _reduce_modulo_lattice,
    theta_context,
    theta_with_derivs,
)

GENUS1_LAMBDA = {4: -1.25, 6: 0.4}
GENUS2_BRANCH = [-1.92, -1.12, -0.32, 0.58, 1.38]


def genus1_family():
    return make_family(2, 3, GENUS1_LAMBDA)


def genus2_family():
    es = np.array(GENUS2_BRANCH)
    return hyperelliptic_from_branch_points(es - es.mean())


def random_genus2(rng):
    while True:
        es = np.sort(rng.uniform(-2.2, 2.2, size=5))
        es -= es.mean()
        if min(np.diff(es)) > 0.25:
            return hyperelliptic_from_branch_points(es)


def random_point(fam, rng, scale=1.4):
    x = rng.normal(0.0, scale) + 1j * rng.normal(0.0, scale)
    return fam.lift_x_to_points(x)[int(rng.integers(2))]


def _du_numerators(fam):
    # the exact layer's du numerators as compute_periods reads them: the
    # columns of the shape's table, zero-padded to one length
    return list(hyperell._shape_tables(fam.n, fam.s, fam.extended)[1].T)


def _period_numerators(fam):
    # compute_periods' numerators: the du table's columns, zero-padded to the
    # length of Baker's dr rows, then those rows
    table = hyperell._shape_tables(fam.n, fam.s, fam.extended)[1]
    dr = _dr_numerators(curve_polynomial(fam))
    du = np.zeros((len(dr), fam.genus), dtype=complex)
    du[: len(table)] = table
    return np.concatenate([du, dr], axis=1)


@functools.lru_cache(maxsize=None)
def _derived_system(n, s, extended):
    return build_inversion_system(make_family(n, s, "sym", extended=extended))


def _compiled_system(fam):
    # the shape's derived system at fam's lambda, compiled apart from
    # compute_periods, which folds it into PeriodData.grid_map
    return compile_system(_derived_system(fam.n, fam.s, fam.extended), fam)


def _symbol_index(fam):
    # each of that system's symbols' index into [wp2 | wp3]
    return hyperell._shape_tables(fam.n, fam.s, fam.extended)[3]


def _lattice(g, radius):
    # integer points of the cube [-radius, radius]^g, one row each
    grid = np.meshgrid(*[np.arange(-radius, radius + 1)] * g, indexing="ij")
    return np.stack([a.ravel() for a in grid], axis=1)


def _fresh_leg_tables(monkeypatch):
    # a cache of its own, so leg tables built at patched node counts go with it
    monkeypatch.setattr(hyperell, "_leg_tables",
                        functools.lru_cache(hyperell._leg_tables.__wrapped__))


# -- curve polynomial and branch points --------------------------------------


def test_curve_polynomial_matches_lambda():
    fam = genus1_family()
    p = curve_polynomial(fam)
    assert np.allclose(p, [0.4, -1.25, 0.0, 1.0])


@pytest.mark.parametrize(
    "fam",
    [
        # lambda_5 sits on y^1 x^1: read as a y^2 = p(x) term it would land in p
        make_family(3, 4, {5: 0.5, 12: 1.0}),
        # two sheets, but lambda_3 multiplies y: y^2 = x^3 + 0.5 y
        make_family(2, 3, {3: 0.5}, extended=True),
    ],
    ids=["three-sheets", "y-term"],
)
def test_curve_polynomial_refuses_non_y_squared(fam):
    with pytest.raises(NotTwoSheeted) as info:
        curve_polynomial(fam)
    assert isinstance(info.value, NSCurveError)
    assert isinstance(info.value, ValueError)
    for public in (compute_periods, branch_points):
        with pytest.raises(NotTwoSheeted):
            public(fam)


def test_branch_points_recovered():
    es = np.array(GENUS2_BRANCH)
    es -= es.mean()
    fam = hyperelliptic_from_branch_points(es)
    assert np.allclose(branch_points(fam).real, np.sort(es), atol=1e-10)


def test_branch_point_builder_rejects_offcenter():
    with pytest.raises(ValueError):
        hyperelliptic_from_branch_points([0.0, 1.0, 2.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_branch_point_builder_rejects_non_finite(bad):
    # both used to give y^2 = x^3 with no error
    with pytest.raises(ValueError, match="finite branch points"):
        hyperelliptic_from_branch_points([bad, -1.0, 1.0])


def test_branch_point_builder_rejects_even_count():
    with pytest.raises(ValueError):
        hyperelliptic_from_branch_points([-1.0, 1.0])


def test_branch_collision_detected():
    # (x+1)^2 (x-2): a genuine double branch point
    fam = make_family(2, 3, {4: -3.0, 6: -2.0})
    with pytest.raises(BranchCollision):
        branch_points(fam)


def test_all_branch_points_at_zero_collide():
    # y^2 = x^5: as in np.roots, a constant companion solves no eigenproblem,
    # and the roots are five float zeros
    with pytest.raises(BranchCollision, match="^branch points 0 and 0 collide"):
        branch_points(make_family(2, 5, {}))


@st.composite
def real_rooted_polynomials(draw):
    # ascending p of degree 3, 5 or 7, real or complex, with real roots at
    # least 0.1 apart; subtracting one root from all puts that one at 0
    degree = draw(st.sampled_from([3, 5, 7]))
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=degree - 1, max_size=degree - 1))
    roots = draw(st.floats(-3.0, 0.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    zero = draw(st.none() | st.integers(0, degree - 1))
    if zero is not None:
        roots = roots - roots[zero]
    p = np.poly(roots)[::-1]
    return p.astype(complex) if draw(st.booleans()) else p


@given(real_rooted_polynomials())
@example(np.poly([-1.0, 0.0, 2.0])[::-1] + 0j)  # a zero constant coefficient
@settings(max_examples=200, deadline=None)
def test_sorted_roots_are_np_roots_bit_for_bit(p):
    got, want = hyperell._sorted_roots(p), np.sort(np.roots(p[::-1]))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_complex_branch_geometry_refused():
    fam = make_family(2, 5, {4: -1.0, 6: 0.5, 8: 0.25, 10: -0.75})
    with pytest.raises(ComplexBranchPoints, match="need real branch points") as info:
        compute_periods(fam)
    assert isinstance(info.value, NSCurveError)
    assert isinstance(info.value, ValueError)


# -- periods -----------------------------------------------------------------


def test_tau_symmetric_positive_over_random_curves():
    rng = np.random.default_rng(41)
    for _ in range(20):
        per = compute_periods(random_genus2(rng))
        assert np.linalg.norm(per.tau - per.tau.T) < 1e-8
        assert np.all(np.linalg.eigvalsh(per.tau.imag) > 0)


def test_quadrature_refinement_stable(monkeypatch):
    fam = genus2_family()
    a = compute_periods(fam)
    _fresh_leg_tables(monkeypatch)
    monkeypatch.setattr(hyperell, "LEG_NODES", 2 * hyperell.LEG_NODES)
    b = compute_periods(fam)
    assert np.max(np.abs(a.omega - b.omega)) < 1e-10
    assert np.max(np.abs(a.omega_prime - b.omega_prime)) < 1e-10
    assert np.max(np.abs(a.eta - b.eta)) < 1e-10


def test_legendre_symmetry_of_eta_omega_inverse():
    for fam in (genus1_family(), genus2_family()):
        per = compute_periods(fam)
        assert per.legendre_defect < 1e-10


def test_coarse_quadrature_fails_the_convergence_gate(monkeypatch):
    fam = genus2_family()
    per = compute_periods(fam)
    P = fam.lift_x_to_points(1.3 + 0.4j)[0]
    margin = r"relative difference between node counts [0-9.e+-]+, tolerance 1e-10"
    _fresh_leg_tables(monkeypatch)
    monkeypatch.setattr(hyperell, "LEG_NODES", 3)
    with pytest.raises(QuadratureNotConverged, match="the leg from .*" + margin):
        abel_map(fam, per, P)
    with pytest.raises(QuadratureNotConverged, match="the leg from .*" + margin) as info:
        compute_periods(fam)
    assert isinstance(info.value, NSCurveError)


@pytest.mark.parametrize("make", [genus1_family, genus2_family], ids=["g1", "g2"])
def test_compute_periods_integrates_with_one_batch_of_legs(make):
    fam = make()
    with mock.patch.object(hyperell, "_leg", wraps=hyperell._leg) as leg:
        compute_periods(fam)
    assert leg.call_count == 1
    # two legs per interval between branch points, and one to P0
    assert len(leg.call_args.args[3]) == 4 * fam.genus + 1


def test_genus_above_the_cap_refused_before_any_theta_sum(monkeypatch):
    def no_theta(*args, **kwargs):
        raise AssertionError("a theta lattice was built")

    monkeypatch.setattr(theta_module, "_theta_table", no_theta)
    monkeypatch.setattr(hyperell, "theta_context", no_theta)
    fam = hyperelliptic_from_branch_points(np.arange(9) - 4.0)
    assert fam.genus == 4
    with pytest.raises(UnsupportedGenus, match="genus 4 is above 3") as info:
        compute_periods(fam)
    assert isinstance(info.value, NSCurveError)
    assert isinstance(info.value, ValueError)


# -- second-kind differentials -----------------------------------------------


@pytest.mark.parametrize("s", [3, 5, 7, 9])
def test_baker_rows_are_residue_duals_of_du(s):
    # exact, lambda symbolic: res(u_w dr_k) is 1 for w = 2k - 1, else 0
    fam = make_family(2, s, "sym")
    chart = expand_at_infinity(fam, 2 * fam.genus + 4)
    first = first_kind_basis(chart)
    p = np.zeros(s + 1, dtype=object)
    p[s] = 1
    for _, _, i, value in fam.lambda_terms():
        p[i] = p[i] + value
    dr = [
        functools.reduce(
            operator.add,
            [
                chart.mono_dxdyf(fam.monomial_of_weight(2 * m)).scale(c)
                for m, c in enumerate(row)
                if c
            ],
        )
        for row in _dr_numerators(p).T
    ]
    assert len(dr) == fam.genus
    for a, u in enumerate(first.u_series):
        for b, form in enumerate(dr):
            assert residue_of_product(u, form) == WeightedPoly.const(int(a == b))


def _dr_table(fam):
    # the genus-1/2 table that Baker's closed form replaced, kept as its oracle
    if fam.genus == 1:
        return [np.array([0.0, 1.0], dtype=complex)]
    lam4 = fam.numeric_lambda().get(4, 0.0)
    return [
        np.array([0.0, 0.0, 1.0], dtype=complex),
        np.array([0.0, lam4, 0.0, 3.0], dtype=complex),
    ]


@pytest.mark.parametrize("genus", [1, 2])
def test_baker_rows_equal_the_old_table_bit_for_bit(genus):
    rng = np.random.default_rng(genus)
    for _ in range(50):
        lam = {k: complex(*rng.normal(size=2)) for k in range(4, 4 * genus + 3, 2)}
        fam = make_family(2, 2 * genus + 1, lam)
        got = _dr_numerators(curve_polynomial(fam))
        want = np.zeros_like(got)
        for k, row in enumerate(_dr_table(fam)):
            want[: len(row), k] = row
        assert got.tobytes() == want.tobytes()


# -- the contour periods and the map from infinity, kept as oracles ----------
#
# compute_periods used to integrate around ellipses that enclose branch
# points, and abel_map to sum a series leg from infinity and then continue y
# node by node along segments routed around the branch points.  Both are
# kept here to check the interval sums and the legs that replaced them.


def _gl_nodes(panels, nodes, a, b):
    # composite Gauss-Legendre rule on [a, b]
    base, weights = np.polynomial.legendre.leggauss(nodes)
    ts, ws = [], []
    edges = np.linspace(a, b, panels + 1)
    for left, right in zip(edges[:-1], edges[1:]):
        half = (right - left) / 2
        ts.append(half * base + (left + right) / 2)
        ws.append(half * weights)
    return np.concatenate(ts), np.concatenate(ws)


def _track_sheet(p, xs, y_start):
    # sqrt(p) along xs, each value on the sheet nearer the one before
    ys = np.empty(len(xs), dtype=complex)
    prev = y_start
    for idx, x in enumerate(xs):
        root = np.sqrt(complex(np.polyval(p[::-1], x)))
        if prev is not None and abs(-root - prev) < abs(root - prev):
            root = -root
        ys[idx] = prev = root
    return ys


def _integrate_along(p, numerators, xs, dxs, ws, y_start):
    ys = _track_sheet(p, xs, y_start)
    vals = np.array(
        [
            np.sum(ws * np.polyval(num[::-1], xs) * dxs / (-2.0 * ys))
            for num in numerators
        ]
    )
    return vals, ys


def _spacing(es):
    return min(abs(a - b) for i, a in enumerate(es) for b in es[i + 1 :])


def _ellipse_integral(p, numerators, lo, hi, spacing):
    # around an ellipse that encloses the real segment [lo, hi]
    center = (lo + hi) / 2
    ax = abs(hi - lo) / 2 + 0.45 * spacing
    ay = max(0.4 * spacing, 0.5 * ax)
    ts, ws = _gl_nodes(32, 16, 0.0, 2.0 * math.pi)
    xs = center + ax * np.cos(ts) + 1j * ay * np.sin(ts)
    dxs = -ax * np.sin(ts) + 1j * ay * np.cos(ts)
    return _integrate_along(p, numerators, xs, dxs, ws, None)[0]


def _contour_periods(fam):
    """(omega, tau, kappa): a_k around (e_2k-1, e_2k), b_k around the tail."""
    g = fam.genus
    es = branch_points(fam)
    p = curve_polynomial(fam)
    nums = list(_period_numerators(fam).T)
    spacing = _spacing(es)
    omega, omega_prime, eta = np.zeros((3, g, g), dtype=complex)
    for k in range(g):
        vals = _ellipse_integral(p, nums, es[2 * k], es[2 * k + 1], spacing)
        omega[:, k], eta[:, k] = vals[:g], vals[g:]
        omega_prime[:, k] = _ellipse_integral(p, nums[:g], es[2 * k + 1], es[2 * g], spacing)
    omega_inv = np.linalg.inv(omega)
    tau, omega_prime = _orient_b_cycles(omega, omega_prime, omega_inv)
    raw = eta @ omega_inv
    return omega, tau, hyperell.KAPPA_SIGN * (raw + raw.T) / 2


def _series_inv_sqrt(q, order):
    # ascending coefficients of 1/sqrt(1 + q_1 xi + ...), q[0] == 1
    out = np.zeros(order, dtype=complex)
    out[0] = 1.0
    for _ in range(order.bit_length() + 2):
        sq = np.convolve(out, out)[:order]
        err = np.convolve(sq, q[:order])[:order]
        err[0] -= 1.0
        out = out - 0.5 * np.convolve(out, err)[:order]
    return out


def _series_leg(fam, p, es, order=52):
    # u_w(xi) = integral of xi^(w-1) / h(xi) with h = y xi^s at infinity,
    # summed out to xi0, well inside the disc the branch points leave clear
    xi0 = min(0.35, 0.5 / math.sqrt(float(np.max(np.abs(es))) + 1e-9))
    q = np.zeros(order, dtype=complex)
    for i in range(fam.s + 1):
        if 2 * (fam.s - i) < order:
            q[2 * (fam.s - i)] += p[i]
    hinv = _series_inv_sqrt(q, order)
    u = np.zeros(fam.genus, dtype=complex)
    for k in range(1, fam.genus + 1):
        exps = 2 * k - 1 + np.arange(order)
        u[k - 1] = np.sum(hinv * xi0 ** exps / exps)
    y0 = xi0 ** -float(fam.s) / np.polyval(hinv[::-1], xi0)
    return u, CurvePoint(complex(xi0 ** -2.0), complex(y0))


def _segments_avoiding(start, end, es, clearance, depth=0):
    # straight segments from start to end, detoured around each branch point
    # that comes closer than clearance
    if depth > 8:
        raise RuntimeError("could not route the path clear of branch points")
    direction = end - start
    length = abs(direction)
    if length < 1e-14:
        return []
    for e in es:
        t = ((e - start) / direction).real
        if 0.02 < t < 0.98:
            foot = start + t * direction
            if abs(e - foot) < clearance:
                normal = 1j * direction / length
                away = (e - foot).real * normal.real + (e - foot).imag * normal.imag
                way = foot + (normal if away <= 0 else -normal) * 2.0 * clearance
                return _segments_avoiding(
                    start, way, es, clearance, depth + 1
                ) + _segments_avoiding(way, end, es, clearance, depth + 1)
    return [(start, end)]


def _abel_from_infinity(fam, point):
    """u(P) from the series leg at infinity and sheet-tracked segments."""
    es = branch_points(fam)
    p = curve_polynomial(fam)
    u, here = _series_leg(fam, p, es)
    y_prev = here.y
    for start, end in _segments_avoiding(here.x, point.x, es, 0.2 * _spacing(es)):
        ts, ws = _gl_nodes(64, 12, 0.0, 1.0)
        xs = start + ts * (end - start)
        dxs = np.full(len(ts), end - start, dtype=complex)
        vals, ys = _integrate_along(p, _du_numerators(fam), xs, dxs, ws, y_prev)
        u = u + vals
        y_prev = _track_sheet(p, np.array([end]), ys[-1])[0]
    return u if abs(y_prev - point.y) < abs(y_prev + point.y) else -u


def _lattice_offset(diff, per):
    # how far diff is from the period lattice, in lattice coordinates
    lattice = np.hstack([per.omega, per.omega_prime])
    coeffs = np.linalg.solve(
        np.vstack([lattice.real, lattice.imag]),
        np.concatenate([diff.real, diff.imag]),
    )
    return float(np.max(np.abs(coeffs - np.round(coeffs))))


_coord = st.floats(-2.5, 2.5, allow_nan=False, allow_infinity=False)
_complex = st.builds(complex, _coord, _coord)


# -- characteristic of the Riemann constants ---------------------------------


def test_genus2_characteristic_is_the_standard_one():
    per = compute_periods(genus2_family())
    d1, d2 = per.theta.characteristic
    assert np.allclose(d1, [0.5, 0.5])
    assert np.allclose(d2, [0.0, 0.5])


def _all_characteristics(g):
    for bits in range(4 ** g):
        d1 = np.array([(bits >> i) & 1 for i in range(g)]) / 2.0
        d2 = np.array([(bits >> (g + i)) & 1 for i in range(g)]) / 2.0
        yield d1, d2


def _riemann_characteristic_by_search(periods):
    # the numeric search the closed form replaced, kept as its oracle: the
    # one half characteristic whose theta vanishes on probes in A(W_{g-1})
    fam = periods.fam
    g = fam.genus
    if g == 1:
        probes = [np.zeros(1, dtype=complex)]  # A(W_0) = {0}
    else:
        probes = []
        for x in (0.37 + 0.21j, -0.54 + 0.39j, 1.13 - 0.27j):
            u = abel_map(fam, periods, fam.lift_x_to_points(x)[0])
            probes.append(
                _reduce_modulo_lattice(np.linalg.solve(periods.omega, u), periods.theta)
            )
    radius = theta_context(periods.tau).radius
    best, runner, winner = np.inf, np.inf, None
    for d1, d2 in _all_characteristics(g):
        ctx = ThetaContext(periods.tau, (d1, d2), radius)
        score = 0.0
        for z in probes:
            (val,), scale = theta_with_derivs(z, ctx, order=0)
            score = max(score, abs(val) / scale)
        if score < best:
            best, runner, winner = score, best, (d1, d2)
        elif score < runner:
            runner = score
    assert best <= 1e-6 and best <= 1e-3 * runner, (best, runner)
    return winner


@st.composite
def spaced_branch_points(draw):
    # real branch points more than 0.25 apart, as in random_genus2
    genus = draw(st.sampled_from([1, 2]))
    size = 2 * genus + 1
    es = np.sort(draw(st.lists(st.floats(-2.2, 2.2), min_size=size, max_size=size)))
    assume(min(np.diff(es)) > 0.25)
    return es - es.mean()


@given(spaced_branch_points())
@settings(max_examples=40, deadline=None)
def test_closed_form_characteristic_matches_the_search(es):
    per = compute_periods(hyperelliptic_from_branch_points(es))
    want = _riemann_characteristic_by_search(per)
    got = per.theta.characteristic
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("make", [genus1_family, genus2_family], ids=["g1", "g2"])
def test_only_the_closed_form_passes_the_gate(make):
    per = compute_periods(make())
    g = per.fam.genus
    # a point over the x that compute_periods checks at
    P0 = per.fam.lift_x_to_points(per.branch_points[-1].real + 1.0 + 1.0j)[0]
    u_point = abel_map(per.fam, per, P0)
    passing = []
    for d1, d2 in _all_characteristics(g):
        ctx = ThetaContext(per.tau, (d1, d2), per.theta.radius)
        try:
            _check_riemann_characteristic(ctx, per.omega_inv, u_point)
        except OnThetaDivisor:
            continue
        passing.append((d1.tolist(), d2.tolist()))
    want = _riemann_characteristic(g)
    assert passing == [(want[0].tolist(), want[1].tolist())]


def test_wrong_characteristic_fails_the_gate_with_its_margin(monkeypatch):
    even = (np.zeros(2), np.zeros(2))
    monkeypatch.setattr(hyperell, "_riemann_characteristic", lambda g: even)
    margin = r"tolerance 1e-06 of scale [0-9.e+-]+\): \|theta\| [0-9.e+-]+, tolerance [0-9.e+-]+"
    with pytest.raises(OnThetaDivisor, match=margin):
        compute_periods(genus2_family())


# -- theta -------------------------------------------------------------------


def test_nscurves_theta_is_the_module(monkeypatch):
    import nscurves
    import nscurves.theta as m

    assert m is theta_module is nscurves.theta
    assert m.theta_context is theta_context is nscurves.theta_context
    tau = np.array([[0.8j]])
    radius = theta_context(tau).radius
    # a string target reaches the module's constant, and theta_context reads it
    monkeypatch.setattr("nscurves.theta.THETA_TAIL", 1e-4)
    assert theta_context(tau).radius < radius


def test_theta_constant_at_square_lattice():
    ctx = theta_context(np.array([[1j]]))
    value = theta_with_derivs(np.array([0.0]), ctx)[0][0]
    assert abs(value - math.pi ** 0.25 / math.gamma(0.75)) < 1e-12


def test_theta_cutoff_saturated():
    per = compute_periods(genus2_family())
    ctx = theta_context(per.tau)
    # through the constructor, which builds the wider lattice's arrays
    wide = ThetaContext(per.tau, ctx.characteristic, ctx.radius + 2)
    assert len(wide.quad) > len(ctx.quad)
    z = np.array([0.31 + 0.12j, -0.22 + 0.05j])
    assert abs(theta_with_derivs(z, ctx)[0][0] - theta_with_derivs(z, wide)[0][0]) < 1e-12


def test_theta_odd_characteristic_vanishes():
    ctx = theta_context(np.array([[0.8j]]), (np.array([0.5]), np.array([0.5])))
    assert abs(theta_with_derivs(np.array([0.0]), ctx)[0][0]) < 1e-13


def test_theta_quasi_periodicity():
    per = compute_periods(genus2_family())
    # z + tau e_1 is not reduced, so it needs a wider cube than theta_context's
    base = theta_context(per.tau)
    ctx = ThetaContext(per.tau, base.characteristic, base.radius + 2)
    z = np.array([0.21 - 0.07j, -0.33 + 0.11j])
    shifted = theta_with_derivs(z + per.tau[:, 0], ctx)[0][0]
    ratio = shifted / theta_with_derivs(z, ctx)[0][0]
    expected = np.exp(-1j * math.pi * per.tau[0, 0] - 2j * math.pi * z[0])
    assert abs(ratio - expected) < 1e-10


# -- wp values ---------------------------------------------------------------


def test_wp_index_order_irrelevant():
    fam = genus2_family()
    per = compute_periods(fam)
    D = make_divisor(
        fam,
        [
            fam.lift_x_to_points(1.9 + 0.3j)[0],
            fam.lift_x_to_points(-0.8 + 0.6j)[1],
        ],
    )
    vals = wp_from_theta(abel_map_divisor(fam, per, D), per)
    assert vals.wp(3, 1) == vals.wp(1, 3)
    assert vals.wp(3, 1, 1) == vals.wp(1, 1, 3)


@pytest.mark.parametrize("make", [genus1_family, genus2_family], ids=["g1", "g2"])
@pytest.mark.parametrize("indices", [(1,), (), (1, 1, 1, 1), (2, 1), (2, 2)])
def test_wp_refuses_indices_off_the_gaps(make, indices):
    # a count other than two or three, or an index that is not a gap
    fam = make()
    per = compute_periods(fam)
    rng = np.random.default_rng(7)
    D = make_divisor(fam, [random_point(fam, rng) for _ in range(fam.genus)])
    vals = wp_from_theta(abel_map_divisor(fam, per, D), per)
    gaps = re.escape(str(tuple(fam.gaps)))
    with pytest.raises(ValueError, match=rf"^wp takes two or three indices among the gaps "
                       rf"{gaps}, not {re.escape(str(indices))}$"):
        vals.wp(*indices)


def test_wp_even_in_u():
    fam = genus2_family()
    per = compute_periods(fam)
    D = make_divisor(
        fam,
        [
            fam.lift_x_to_points(1.9 + 0.3j)[0],
            fam.lift_x_to_points(-0.8 + 0.6j)[1],
        ],
    )
    u = abel_map_divisor(fam, per, D)
    plus = wp_from_theta(u, per)
    minus = wp_from_theta(-u, per)
    assert plus.wp2.shape == (2, 2) and plus.wp3.shape == (2, 2, 2)
    assert np.max(np.abs(plus.wp2 - minus.wp2)) < 1e-8
    assert np.max(np.abs(plus.wp3 + minus.wp3)) < 1e-8


def test_wp3_consistent_with_finite_difference_of_wp2():
    fam = genus1_family()
    per = compute_periods(fam)
    P = fam.lift_x_to_points(1.7)[0]
    u = abel_map(fam, per, P)
    h = 1e-5
    step = np.array([h])
    fd = (
        wp_from_theta(u + step, per).wp(1, 1)
        - wp_from_theta(u - step, per).wp(1, 1)
    ) / (2 * h)
    assert abs(fd - wp_from_theta(u, per).wp(1, 1, 1)) < 1e-5


def test_wp_on_theta_divisor_refused():
    fam = genus2_family()
    per = compute_periods(fam)
    u = abel_map(fam, per, fam.lift_x_to_points(0.9 + 0.4j)[0])
    with pytest.raises(OnThetaDivisor):
        wp_from_theta(u, per)


def test_periods_of_another_curve_are_refused():
    fam = genus2_family()
    other = hyperelliptic_from_branch_points([-1.5, -0.7, 0.1, 0.9, 1.2])
    per = compute_periods(other)
    D = make_divisor(
        other,
        [other.lift_x_to_points(0.3 + 0.2j)[0], other.lift_x_to_points(-0.9 + 0.5j)[1]],
    )
    refused = r"periods of y\^2 = p\(x\) with ascending p = \[.*\], not \["
    with pytest.raises(ValueError, match=refused):
        verify_inversion(fam, D, per)
    with pytest.raises(ValueError, match=refused):
        abel_map(fam, per, D.points[0])
    with pytest.raises(ValueError, match=refused):
        abel_map_divisor(genus1_family(), per, D)
    # the same curve built apart from the periods' own family passes
    twin = hyperelliptic_from_branch_points([-1.5, -0.7, 0.1, 0.9, 1.2])
    assert twin is not other
    assert verify_inversion(twin, D, per) == verify_inversion(other, D, per)


# -- Abel map ----------------------------------------------------------------


def test_abel_of_infinity_is_zero():
    # the empty divisor: every point at infinity, where the map starts
    fam = genus1_family()
    per = compute_periods(fam)
    assert np.all(abel_map_divisor(fam, per, Divisor((), False)) == 0)


def test_abel_landing_off_the_curve_reports_its_miss():
    fam = genus1_family()
    per = compute_periods(fam)
    P = fam.lift_x_to_points(1.3 + 0.4j)[0]
    limit = hyperell.LANDING_TOL * max(1.0, abs(1.5 * P.y))
    miss = rf"nearest sheet [0-9.e+-]+, tolerance {limit:g}"
    with pytest.raises(SheetLoss, match=miss):
        abel_map(fam, per, CurvePoint(P.x, 1.5 * P.y))


def test_every_point_of_a_batch_is_gated():
    # the first point passes both gates and the second fails one; the
    # refusal names the second point
    fam = hyperelliptic_from_branch_points([-2.0, -1.75, 0.5, 1.2, 2.05])
    per = compute_periods(fam)
    near = fam.lift_x_to_points(0.3 + 0.2j)[0]
    far = fam.lift_x_to_points(100j)[0]  # beyond the leg's reach
    with pytest.raises(QuadratureNotConverged, match=r"to x = 0\+100j did not converge"):
        abel_map_divisor(fam, per, Divisor((near, far), False))
    other = fam.lift_x_to_points(-0.7 + 0.4j)[1]
    off = CurvePoint(other.x, 1.5 * other.y)
    with pytest.raises(SheetLoss, match=r"over x = -0.7\+0.4j"):
        abel_map_divisor(fam, per, Divisor((near, off), False))


def test_abel_odd_under_sheet_swap():
    fam = genus2_family()
    per = compute_periods(fam)
    P = fam.lift_x_to_points(1.3 + 0.4j)[0]
    u = abel_map(fam, per, P)
    v = abel_map(fam, per, CurvePoint(P.x, -P.y))
    # u + v is 2 A(e), e the branch point the legs start from
    assert _lattice_offset(u + v, per) < 1e-12


def test_abel_path_independent_modulo_lattice():
    fam = genus2_family()
    per = compute_periods(fam)
    P = fam.lift_x_to_points(-1.5 + 0.2j)[0]
    u = abel_map(fam, per, P)
    v = _abel_from_infinity(fam, P)
    assert _lattice_offset(u - v, per) < 1e-7


def test_abel_round_trip_genus1():
    fam = genus1_family()
    per = compute_periods(fam)
    rng = np.random.default_rng(5)
    for _ in range(10):
        P = random_point(fam, rng)
        vals = wp_from_theta(abel_map(fam, per, P), per)
        assert abs(vals.wp(1, 1) - P.x) < 1e-7
        assert abs(-0.5 * vals.wp(1, 1, 1) - P.y) < 1e-7


def test_abel_map_at_branch_points_gives_half_periods():
    # on y^2 = x^3 - x, A(e_j) is the half period where wp = e_j and wp' = 0
    fam = make_family(2, 3, {4: -1.0})
    per = compute_periods(fam)
    for e in per.branch_points.real:
        vals = wp_from_theta(abel_map(fam, per, CurvePoint(e, 0j)), per)
        assert abs(vals.wp(1, 1) - e) < 1e-12
        assert abs(vals.wp(1, 1, 1)) < 1e-12


@pytest.mark.parametrize("x", [0.5, 0.5 + 1e-9j, 0.5 - 1e-9j, 0.5 + 0.3j])
def test_abel_map_equidistant_from_two_branch_points(x):
    # on y^2 = x^3 - x, the branch points 0 and 1 are equally near x
    fam = make_family(2, 3, {4: -1.0})
    per = compute_periods(fam)
    for P in fam.lift_x_to_points(x):
        vals = wp_from_theta(abel_map(fam, per, P), per)
        assert abs(vals.wp(1, 1) - P.x) < 1e-12
        assert abs(-0.5 * vals.wp(1, 1, 1) - P.y) < 1e-12


# hyper-loop divisors that the map from infinity got wrong (by 2.07 and 1.35
# times the benchmark tolerance) or refused with SheetLoss: branch points and
# points as the benchmark builds them for seeds 17, 19, 37 and 39
_FORMER_DEFECTS = {
    "seed17-op11": (
        [-2.077790376389954, -1.2008530125056387, 0.7205478837077637,
         1.027788254102442, 1.5303072510853872],
        [(-4.3542366761353835 - 0.12832692440647583j,
          2.8529675202707896 - 33.90234187835298j),
         (-1.4792893471430333 + 0.5365150422154531j,
          -2.5855514954868815 + 1.3919156782331132j)],
    ),
    "seed19-op15": (
        [-1.7145338821309006, -0.5650711147854381, -0.2042805001903738,
         1.1073103765250965, 1.3765751205816161],
        [(1.2612409040296253 - 0.014073689979690648j,
          -0.0015528850977202153 + 0.3782238177145408j),
         (0.1316310714835377 - 0.0795224084212398j,
          0.7335788299932869 - 0.0899578857443821j)],
    ),
    "seed37-op18": (
        [-0.6929695453449412, 0.04858878395481203, 0.6443807613901289],
        [(0.5734443698384617 - 0.001386465682418025j,
          0.0017162496759738743 - 0.21715562755731538j)],
    ),
    "seed39-op9": (
        [-1.2751631624897444, -0.5337787330032132, -0.2634637077579881,
         0.610652275152542, 1.4617533280984039],
        [(1.330021160118791 + 0.0028266903362543414j,
          -0.005630505314785146 - 0.8563623674128815j),
         (0.5772299399056249 + 1.9693111158225405j,
          -7.354151853379659 - 1.2547249676488303j)],
    ),
}


@pytest.mark.parametrize("es, points", _FORMER_DEFECTS.values(), ids=_FORMER_DEFECTS)
def test_former_abel_map_defects_pass(es, points):
    fam = hyperelliptic_from_branch_points(es)
    D = make_divisor(fam, [CurvePoint(x, y) for x, y in points])
    tolerance = {1: 1e-8, 2: 1e-6}[fam.genus]  # the benchmark's
    report = verify_inversion(fam, D, compute_periods(fam))
    assert max(c.abs_err for c in report) < 0.1 * tolerance


# -- inversion identities ----------------------------------------------------


def test_genus1_uniformization_satisfies_curve():
    fam = genus1_family()
    per = compute_periods(fam)
    rng = np.random.default_rng(11)
    for _ in range(10):
        P = random_point(fam, rng)
        vals = wp_from_theta(abel_map(fam, per, P), per)
        x = vals.wp(1, 1)
        y = -0.5 * vals.wp(1, 1, 1)
        assert abs(fam.eval_f(x, y)) < 1e-8


def test_genus2_inversion_identities_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        fam = random_genus2(rng)
        per = compute_periods(fam)
        D = make_divisor(fam, [random_point(fam, rng), random_point(fam, rng)])
        report = verify_inversion(fam, D, per)
        assert len(report) == 4
        assert max(c.abs_err for c in report) < 1e-6


@st.composite
def genus3_branch_points(draw):
    # seven real branch points, adjacent ones more than 0.25 apart; drawn as
    # gaps, since rejecting unspaced draws would keep about one in twenty
    gaps = st.floats(0.25, 0.7, exclude_min=True)
    es = np.cumsum([0.0] + draw(st.lists(gaps, min_size=6, max_size=6)))
    return es - es.mean()


@given(genus3_branch_points(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_genus3_inversion_closes_the_loop(es, seed):
    fam = hyperelliptic_from_branch_points(es)
    per = compute_periods(fam)
    assert per.legendre_defect < 1e-10
    rng = np.random.default_rng(seed)
    D = make_divisor(fam, [random_point(fam, rng) for _ in range(3)])
    assume(not D.special)
    report = verify_inversion(fam, D, per)
    assert len(report) == 6
    assert max(c.abs_err for c in report) < 1e-6


_SPAN_BRANCH = {
    1: [-1.0, 0.1, 0.9],
    2: GENUS2_BRANCH,
    3: [-1.6, -1.1, -0.6, -0.05, 0.45, 1.0, 1.6],
}


@pytest.mark.parametrize("g", [1, 2, 3])
def test_theta_grid_rows_lie_in_the_interpolated_span(g):
    # the derived system at wp(A(D)) and the interpolation through D are two
    # bases of the functions vanishing on D: row l of the first lies in the
    # span of rows 0..l of the second
    es = np.array(_SPAN_BRANCH[g])
    fam = hyperelliptic_from_branch_points(es - es.mean())
    per = compute_periods(fam)
    system = _compiled_system(fam)
    rng = np.random.default_rng(g)
    for _ in range(5):
        D = make_divisor(fam, [random_point(fam, rng) for _ in range(g)])
        vals = wp_from_theta(abel_map_divisor(fam, per, D), per)
        derived = system.evaluate([vals.wp(*s.indices) for s in system.symbols])
        interpolated = rfunctions_from_divisor(fam, D)
        for l, row in enumerate(derived.rho):
            basis = interpolated.rho[: l + 1].reshape(l + 1, -1).T
            fit = np.linalg.lstsq(basis, row.ravel(), rcond=None)[0]
            assert np.linalg.norm(basis @ fit - row.ravel()) <= 1e-10 * np.linalg.norm(row)


# -- cycle orientation and the tau gate --------------------------------------


def _symmetric_positive(tau):
    if np.linalg.norm(tau - tau.T) > 1e-8 * max(1.0, np.linalg.norm(tau)):
        return False
    eigs = np.linalg.eigvalsh((tau.imag + tau.imag.T) / 2)
    return bool(np.all(eigs > 1e-12))


def _orient_by_search(omega, omega_prime):
    # the sign-mask search that _orient_b_cycles replaced, kept as its oracle:
    # the first a-mask, then b-mask, whose tau passes the gate
    g = len(omega)
    for mask_a in range(2 ** (g - 1)):
        flips_a = [1.0] + [-1.0 if mask_a >> i & 1 else 1.0 for i in range(g - 1)]
        for mask_b in range(2 ** g):
            flips_b = [-1.0 if mask_b >> i & 1 else 1.0 for i in range(g)]
            om = omega * np.asarray(flips_a)[None, :]
            omp = omega_prime * np.asarray(flips_b)[None, :]
            tau = np.linalg.solve(om, omp)
            if _symmetric_positive(tau):
                return tau, om, omp
    raise NonSymmetricTau("no cycle orientation makes tau symmetric with Im > 0")


@given(st.one_of(spaced_branch_points(), genus3_branch_points()))
@settings(max_examples=40, deadline=None)
def test_orientation_matches_the_search_on_real_curves(es):
    spy = mock.patch.object(
        hyperell, "_orient_b_cycles", wraps=hyperell._orient_b_cycles
    )
    with spy as orient:
        per = compute_periods(hyperelliptic_from_branch_points(es))
    want_tau, want_omega, want_omega_prime = _orient_by_search(*orient.call_args.args[:2])
    assert per.omega.tobytes() == want_omega.tobytes()
    assert per.omega_prime.tobytes() == want_omega_prime.tobytes()
    assert per.tau.tobytes() == want_tau.tobytes()


@st.composite
def period_parts(draw, min_genus=1):
    # omega, tau0 symmetric with Im tau0 > 0, and sign vectors d1, d2: the
    # periods (omega D1, omega tau0 D2) come with a-cycles flipped too
    g = draw(st.integers(min_genus, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    omega = rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))
    assume(np.linalg.cond(omega) < 1e4)
    re, im = rng.normal(size=(2, g, g))
    tau0 = (re + re.T) / 2 + 1j * (im @ im.T + 0.1 * np.eye(g))
    signs = st.lists(st.sampled_from([-1.0, 1.0]), min_size=g, max_size=g)
    return omega, tau0, np.array(draw(signs)), np.array(draw(signs))


@given(period_parts())
@settings(max_examples=200, deadline=None)
def test_orientation_matches_the_search_under_any_flips(parts):
    omega, tau0, d1, d2 = parts
    omega, omega_prime = omega * d1, omega @ tau0 * d2
    tau, got_omega_prime = _orient_b_cycles(omega, omega_prime, np.linalg.inv(omega))
    want_tau, want_omega, want_omega_prime = _orient_by_search(omega, omega_prime)
    assert want_omega.tobytes() == omega.tobytes()  # no a-cycle flip needed
    assert got_omega_prime.tobytes() == want_omega_prime.tobytes()
    assert tau.tobytes() == want_tau.tobytes()


@given(period_parts(min_genus=2))
@settings(max_examples=50, deadline=None)
def test_non_symmetric_tau_refused_by_both(parts):
    omega, tau0, d1, d2 = parts
    # |bad_10| > |bad_01|, which no sign flip can even out
    bad = tau0.copy()
    bad[1, 0] = tau0[0, 1] + 1.0 + 2.0 * abs(tau0[0, 1])
    omega, omega_prime = omega * d1, omega @ bad * d2
    tau = _orient_b_cycles(omega, omega_prime, np.linalg.inv(omega))[0]
    with pytest.raises(NonSymmetricTau):
        theta_context(tau)
    with pytest.raises(NonSymmetricTau):
        _orient_by_search(omega, omega_prime)


@pytest.mark.parametrize(
    "tau, margin",
    [
        (np.array([[1j, 0.5], [0.2, 1j]]), r"symmetry defect 2\.804e-01"),
        (-1j * np.eye(2), r"sym\(Im tau\) has least eigenvalue -1\.000e\+00"),
        # refused before the defect and the eigenvalues are read
        (np.full((2, 2), complex(np.nan, np.nan)), r"of an entry nan, tolerance 1e\+300$"),
    ],
    ids=["non-symmetric", "im-negative-definite", "nan"],
)
def test_tau_gate_reports_its_margins(tau, margin):
    with pytest.raises(NonSymmetricTau, match=margin) as info:
        theta_context(tau)
    if np.isfinite(tau).all():
        assert "tolerance 1e-08" in str(info.value)
        assert "needs > 0" in str(info.value)


@pytest.mark.parametrize(
    "tau",
    [np.array([1j, 1j]), np.full((2, 3), 1j), np.full((1, 1, 1), 1j), np.zeros((0, 0))],
    ids=["one-dimensional", "not-square", "three-dimensional", "empty"],
)
def test_theta_context_refuses_a_tau_that_is_not_a_square_matrix(tau):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonSymmetricTau, match=re.escape(f"not of shape {tau.shape}")):
            theta_context(tau)


@pytest.mark.parametrize(
    "tau",
    [np.full((2, 2), complex(np.nan, np.nan)), np.array([[1j, 0.5], [0.2, 1j]])],
    ids=["nan", "non-symmetric"],
)
def test_compute_periods_gates_tau_as_soon_as_it_is_oriented(monkeypatch, tau):
    # nothing between the b-cycle flip and the gate: the bad tau is refused
    # before the characteristic check, with no numpy warning on the way
    monkeypatch.setattr(hyperell, "_orient_b_cycles", lambda omega, omega_prime, inv: (
        tau, omega_prime))
    check = mock.patch.object(hyperell, "_check_riemann_characteristic")
    with warnings.catch_warnings(), check as reached:
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonSymmetricTau, match="tau is not a Riemann matrix"):
            compute_periods(genus2_family())
    reached.assert_not_called()


@pytest.mark.parametrize(
    "tau, margin",
    [
        (-1j * np.eye(2), r"least eigenvalue -1\.000e\+00"),
        # a NaN is refused before eigvalsh, which reads a NaN diagonal as 0
        (np.full((2, 2), complex(np.nan, np.nan)), "of an entry nan"),
        # eigvalsh of Im tau alone would read 1 and 1 off the lower triangle
        (np.array([[1j, 5j], [0, 1j]]), r"least eigenvalue -1\.500e\+00"),
    ],
    ids=["im-negative-definite", "nan", "non-symmetric-indefinite"],
)
def test_theta_context_refuses_im_tau_not_positive(tau, margin):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonSymmetricTau, match=margin):
            theta_context(tau)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "tau, value",
    [
        (np.array([[1j, INF], [INF, 1j]]), "inf"),
        (np.array([[complex(0.0, INF)]]), "inf"),
        (np.array([[complex(NAN, 0.0), 0.0], [0.0, 1j]]), "nan"),
        (np.array([[1j, 0.0], [0.0, complex(0.0, NAN)]]), "nan"),
        (np.array([[1e308j]]), r"1\.000e\+308"),
        (np.array([[1e301 + 1j]]), r"1\.000e\+301"),
    ],
    ids=["inf-entry", "inf-imaginary", "nan-real-diagonal", "nan-imaginary-diagonal",
         "past-the-limit", "real-part-past-the-limit"],
)
def test_theta_context_refuses_a_non_finite_tau_before_reading_it(monkeypatch, tau, value):
    # an inf used to raise "invalid value encountered in subtract" in the
    # defect, and eigvalsh reads a NaN diagonal as 0 and -0 without an error
    eigvalsh = mock.Mock(wraps=np.linalg.eigvalsh)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonSymmetricTau, match=(
                rf"^tau is not a Riemann matrix: largest \|Re\|, \|Im\| of an entry {value}, "
                rf"tolerance 1e\+300$")):
            theta_context(tau)
    eigvalsh.assert_not_called()


@pytest.mark.parametrize(
    "tau",
    [np.array([[1e300j]]), np.diag([1e200j, 1e200j]), np.array([[1e300 + 1j]])],
    ids=["1e300i", "diagonal-1e200i", "real-part-1e300"],
)
def test_theta_context_takes_an_extreme_finite_tau_without_overflow(tau):
    # the symmetry defect's norms used to overflow in dot on the first two
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ctx = theta_context(tau)
        (value,), scale = theta_with_derivs(np.zeros(len(tau)), ctx)
    assert np.isfinite(value) and np.isfinite(scale)
    if not tau.real.any():
        # every term but m = 0 is below 1e-100000
        assert (ctx.radius, value, scale) == (1, 1.0, 1.0)


def test_theta_context_reads_the_defect_of_an_extreme_tau():
    # |tau| near the limit: the defect is read on tau / 2^k, not overflowed
    tau = np.array([[1e300j, 1e300], [0.0, 1e300j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonSymmetricTau, match=r"symmetry defect 8\.165e-01, tolerance 1e-08$"):
            theta_context(tau)


def _closed_form_rhs(divisor, vals):
    # the genus-1 and genus-2 identities (Buchstaber, Enolski and Leykin 1997)
    # that the check through the derived system replaced, kept as its oracle
    if len(divisor) == 1:
        return [vals.wp(1, 1), -0.5 * vals.wp(1, 1, 1)]
    return [vals.wp(1, 1), -vals.wp(1, 3)] + [
        -0.5 * (p.x * vals.wp(1, 1, 1) + vals.wp(1, 1, 3)) for p in divisor.points
    ]


@given(spaced_branch_points(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_derived_checks_equal_the_closed_forms(es, seed):
    fam = hyperelliptic_from_branch_points(es)
    per = compute_periods(fam)
    rng = np.random.default_rng(seed)
    D = make_divisor(fam, [random_point(fam, rng) for _ in range(fam.genus)])
    assume(not D.special)
    got = [c.rhs for c in verify_inversion(fam, D, per)]
    want = _closed_form_rhs(D, wp_from_theta(abel_map_divisor(fam, per, D), per))
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_conjugate_pair_divisor_refused():
    fam = genus2_family()
    per = compute_periods(fam)
    P = fam.lift_x_to_points(1.2 + 0.5j)[0]
    D = make_divisor(fam, [P, CurvePoint(P.x, -P.y)])
    assert D.special
    with pytest.raises(SpecialDivisor):
        verify_inversion(fam, D, per)


def test_wrong_degree_divisor_refused():
    fam = genus2_family()
    per = compute_periods(fam)
    D = make_divisor(fam, [fam.lift_x_to_points(1.2 + 0.5j)[0]])
    with pytest.raises(ValueError):
        verify_inversion(fam, D, per)


def test_report_payload_shape():
    fam = genus1_family()
    per = compute_periods(fam)
    D = make_divisor(fam, [fam.lift_x_to_points(1.6 + 0.2j)[0]])
    payload = report_payload(verify_inversion(fam, D, per))
    assert [c["identity"] for c in payload] == ["e_1(x) from R_2", "y_1 from R_3"]
    for entry in payload:
        assert len(entry["lhs"]) == 2 and len(entry["rhs"]) == 2
        assert entry["abs_err"] < 1e-8


# -- interval periods and legs against the oracles ---------------------------


@given(st.one_of(spaced_branch_points(), genus3_branch_points()))
@settings(max_examples=25, deadline=None)
def test_periods_match_the_contour_oracle(es):
    per = compute_periods(hyperelliptic_from_branch_points(es))
    omega, tau, kappa = _contour_periods(per.fam)
    # the contours may orient an a-cycle the other way: omega D_a, so that
    # tau is conjugated by D_a and kappa does not change
    d_a = np.linalg.solve(omega, per.omega).real
    signs = np.round(np.diag(d_a))
    assert set(signs) <= {-1.0, 1.0}
    assert np.max(np.abs(d_a - np.diag(signs))) < 1e-9
    assert np.max(np.abs(per.tau - signs[:, None] * tau * signs)) < 1e-13
    assert np.max(np.abs(per.kappa - kappa)) < 1e-13 * max(1.0, np.max(np.abs(kappa)))
    assert per.legendre_defect < 1e-10


@given(
    st.one_of(spaced_branch_points(), genus3_branch_points()),
    _complex,
    st.integers(0, 1),
)
@settings(max_examples=25, deadline=None)
def test_abel_map_matches_the_map_from_infinity(es, x, sheet):
    fam = hyperelliptic_from_branch_points(es)
    per = compute_periods(fam)
    branch = per.branch_points.real
    assume(np.min(np.abs(x - branch)) >= 0.1 * _spacing(branch))
    # within 0.2 of the real axis the map from infinity is itself off by up
    # to 2e-9; test_integrals_match_mpmath checks legs there
    assume(abs(x.imag) >= 0.2)
    P = fam.lift_x_to_points(x)[sheet]
    offset = _lattice_offset(abel_map(fam, per, P) - _abel_from_infinity(fam, P), per)
    assert offset < 1e-12


def _mp_numerator(mp, num, x):
    return sum(mp.mpc(complex(c)) * x ** i for i, c in enumerate(num))


def _mp_interval(mp, es, num, j):
    # integral from e_j to e_j+1 of num dx / (-2 y(x + i0)), y = sqrt|p| i^n
    # with n the number of branch points right of x
    lip = mp.mpc(0, 1) ** (len(es) - 1 - j)
    return mp.quad(
        lambda x: _mp_numerator(mp, num, x)
        / (-2 * lip * mp.sqrt(abs(mp.fprod(x - e for e in es)))),
        [es[j], es[j + 1]],
    )


def _mp_tail(mp, es, num):
    # integral from e_2g+1 to infinity, y = +sqrt p; past e + 1 as x = e + 1/w^2
    top = es[-1]

    def f(x):
        return _mp_numerator(mp, num, x) / (-2 * mp.sqrt(mp.fprod(x - e for e in es)))

    return mp.quad(f, [top, top + 1]) + mp.quad(
        lambda w: f(top + 1 / w ** 2) * 2 / w ** 3, [0, 1]
    )


def _mp_leg(mp, es, num, j, x, y):
    # integral from e_j to (x, y) along the segment, with y continued as
    # y prod_m sqrt((x' - e_m)/(x - e_m)): when e_j is nearest x, each ratio
    # stays in the disc |w - 1| <= 1, clear of the principal root's cut
    x, y = mp.mpc(x), mp.mpc(y)

    def f(t):
        xt = es[j] + t * (x - es[j])
        yt = y * mp.fprod(mp.sqrt((xt - e) / (x - e)) for e in es)
        return _mp_numerator(mp, num, xt) / (-2 * yt) * (x - es[j])

    return mp.quad(f, [0, 1])


_MP_CURVES = {
    "g1": [-1.0, 0.0, 1.0],
    "g2": GENUS2_BRANCH,
    # gaps of 0.26 beside gaps of 1.3
    "g3": [-2.1, -1.84, -0.54, -0.28, 1.02, 1.28, 2.46],
}

# a gap of 0.01 to 0.03 beside gaps near 1, where the Gauss-Chebyshev interval
# sums that the legs replaced did not converge
_CLUSTERED_CURVES = {
    "g1": [-1.0, -0.98, 1.0],
    "g2": [-2.0, -1.0, -0.97, 1.0, 2.0],
    "g3": [-2.1, -1.84, -0.54, -0.53, 1.02, 1.28, 2.46],
}


def _check_intervals_against_mpmath(mp, fam, per):
    """Every I_j of every numerator against 30 digits; returns them as an mp.matrix."""
    branch = per.branch_points.real
    coeffs = _period_numerators(fam)
    nums = list(coeffs.T)
    got, _ = _interval_integrals(branch, coeffs, branch[-1] + 1.0 + 1.0j)
    ex = [mp.mpf(float(e)) for e in branch]
    want = mp.matrix(
        [[_mp_interval(mp, ex, n, j) for n in nums] for j in range(len(branch) - 1)]
    )
    scale = max(1.0, float(max(abs(v) for v in want)))
    for j in range(len(branch) - 1):
        for k in range(len(nums)):
            assert abs(got[j, k] - complex(want[j, k])) < 1e-13 * scale
    return want


@pytest.mark.parametrize("es", _MP_CURVES.values(), ids=_MP_CURVES)
def test_integrals_match_mpmath(es):
    mp = pytest.importorskip("mpmath")
    es = np.array(es) - np.mean(es)
    fam = hyperelliptic_from_branch_points(es)
    per = compute_periods(fam)
    g = fam.genus
    branch = per.branch_points.real
    du = _du_numerators(fam)
    with mp.workdps(30):
        want = _check_intervals_against_mpmath(mp, fam, per)
        ex = [mp.mpf(float(e)) for e in branch]

        # tau from the 30-digit I_j, b-cycles oriented as compute_periods does
        omega = mp.matrix(g, g)
        omega_prime = mp.matrix(g, g)
        for i in range(g):
            for k in range(g):
                omega[i, k] = 2 * (-1) ** (g - 1 - k) * want[2 * k, i]
                omega_prime[i, k] = -2 * sum(want[2 * m + 1, i] for m in range(k, g))
        tau = mp.inverse(omega) * omega_prime
        for k in range(g):
            for i in range(g):
                want_tau = complex(tau[i, k]) * np.sign(float(mp.im(tau[k, k])))
                assert abs(per.tau[i, k] - want_tau) < 1e-13

        # A(e_j) along the upper lip from infinity, against the closed form
        tails = [_mp_tail(mp, ex, n) for n in du]
        for j in range(2 * g + 1):
            image = [
                complex(-(sum(want[m, i] for m in range(j, 2 * g)) + tails[i]))
                for i in range(g)
            ]
            diff = per.branch_images[j] - np.array(image)
            assert _lattice_offset(diff, per) < 1e-13

        # legs: near the real axis, midway between two branch points, far out
        for x, sheet in [
            (branch[1] + 0.3 * _spacing(branch) + 0.05j, 0),
            ((branch[0] + branch[1]) / 2, 1),
            (3.0 - 2.0j, 0),
        ]:
            P = fam.lift_x_to_points(x)[sheet]
            j = int(np.argmin(np.abs(P.x - branch)))
            leg = abel_map(fam, per, P) - per.branch_images[j]
            want_leg = [complex(_mp_leg(mp, ex, n, j, P.x, P.y)) for n in du]
            scale = max(1.0, np.max(np.abs(want_leg)))
            assert np.max(np.abs(leg - want_leg)) < 1e-13 * scale


@pytest.mark.parametrize("es", _CLUSTERED_CURVES.values(), ids=_CLUSTERED_CURVES)
def test_clustered_branch_points_match_mpmath(es):
    mp = pytest.importorskip("mpmath")
    fam = hyperelliptic_from_branch_points(np.array(es) - np.mean(es))
    with mp.workdps(30):
        _check_intervals_against_mpmath(mp, fam, compute_periods(fam))


def test_a_gap_too_tight_for_the_legs_is_refused():
    es = np.array([-2.0, -1.0, -0.999, 1.0, 2.0])
    fam = hyperelliptic_from_branch_points(es - es.mean())
    with pytest.raises(QuadratureNotConverged, match="the leg from .* did not converge"):
        compute_periods(fam)


# -- the per-call code that per-curve constants replaced, kept as oracles ----


def _einsum_theta(z, ctx, order):
    # the whole sum in one exp per term, contracted with einsum
    g = len(z)
    d1, d2 = ctx.characteristic
    m = _lattice(g, ctx.radius) + d1[None, :]
    phases = np.exp(
        1j * math.pi * np.einsum("ki,ij,kj->k", m, ctx.tau, m)
        + 2j * math.pi * (m @ (z + d2))
    )
    out = [complex(np.sum(phases))]
    factor = 2j * math.pi * m
    if order >= 1:
        out.append(np.einsum("k,ki->i", phases, factor))
    if order >= 2:
        out.append(np.einsum("k,ki,kj->ij", phases, factor, factor))
    if order >= 3:
        out.append(np.einsum("k,ki,kj,kl->ijl", phases, factor, factor, factor))
    return out, float(np.sum(np.abs(phases)))


def _random_riemann_matrix(rng, g):
    a = rng.normal(size=(g, g))
    x = rng.uniform(-0.5, 0.5, size=(g, g))
    return (x + x.T) / 2 + 1j * (a @ a.T / g + 0.6 * np.eye(g))


@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_theta_matches_the_einsum_oracle(g, seed):
    rng = np.random.default_rng(seed)
    tau = _random_riemann_matrix(rng, g)
    half = tuple(rng.integers(0, 2, size=(2, g)) / 2.0)
    ctx = theta_context(tau, half)
    # a reduced argument: a + tau b with a and b in the unit cell
    z = rng.uniform(-0.5, 0.5, size=g) + tau @ rng.uniform(-0.5, 0.5, size=g)
    got, scale = theta_with_derivs(z, ctx, order=3)
    want, want_scale = _einsum_theta(z, ctx, order=3)
    assert abs(scale - want_scale) <= 1e-13 * want_scale
    for order, (a, b) in enumerate(zip(got, want)):
        bound = 1e-13 * want_scale * (2 * math.pi * ctx.radius) ** order
        assert np.shape(a) == np.shape(b)
        assert np.max(np.abs(np.asarray(a) - b)) <= bound


@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_theta_radius_meets_its_tail_bound(g, seed):
    rng = np.random.default_rng(seed)
    tau = _random_riemann_matrix(rng, g)
    half = tuple(rng.integers(0, 2, size=(2, g)) / 2.0)
    ctx = theta_context(tau, half)
    wide = ThetaContext(tau, ctx.characteristic, ctx.radius + 2)
    # a reduced argument: a + tau b with a and b in the unit cell
    z = rng.uniform(-0.5, 0.5, size=g) + tau @ rng.uniform(-0.5, 0.5, size=g)
    got, scale = theta_with_derivs(z, ctx, order=3)
    want, _ = theta_with_derivs(z, wide, order=3)
    for order, (a, b) in enumerate(zip(got, want)):
        bound = THETA_TAIL * scale * (2 * math.pi * (ctx.radius + 2)) ** order
        assert np.max(np.abs(np.asarray(a) - b)) <= bound


def test_theta_context_arrays_follow_its_radius():
    ctx = theta_context(compute_periods(genus2_family()).tau)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.radius = ctx.radius + 2
    assert len(ctx.quad) == (2 * ctx.radius + 1) ** 2
    for name in ("tau", "quad", "factor", "pairs", "im_tau_inv"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ctx, name)[0] = 0


def _point_leg(es, coeffs, j, x):
    # one point's leg, as the Abel map computed it before legs were batched
    e, x = es[j], complex(x)
    others = np.delete(es, j)
    r = np.conj((e + x) / 2 - others)
    r = r / np.abs(r)

    def sqrt_q(xs):
        return np.prod(np.sqrt(r * (xs[..., None] - others)) / np.sqrt(r), axis=-1)

    sigma = np.sqrt(x - e)
    ts, ws = np.polynomial.legendre.leggauss(hyperell.LEG_NODES)
    ts, ws = (ts + 1) / 2, ws / 2
    xs = e + ts ** 2 * (x - e)
    nums = np.polynomial.polynomial.polyval(xs, coeffs)
    return -sigma * (nums / sqrt_q(xs)) @ ws, complex(sigma * sqrt_q(np.asarray(x)))


@given(
    st.one_of(spaced_branch_points(), genus3_branch_points()),
    st.lists(_complex, min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_batched_legs_match_the_per_point_legs(es, xs):
    per = compute_periods(hyperelliptic_from_branch_points(es))
    branch = per.branch_points.real
    assume(min(np.min(np.abs(x - branch)) for x in xs) >= 0.1 * _spacing(branch))
    js = [int(np.argmin(np.abs(x - branch))) for x in xs]
    legs, ys = hyperell._leg(branch, per.du, js, xs)
    assert legs.shape == (len(xs), per.fam.genus) and ys.shape == (len(xs),)
    for leg, y, j, x in zip(legs, ys, js, xs):
        want, want_y = _point_leg(branch, per.du, j, x)
        assert np.max(np.abs(leg - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
        assert abs(y - want_y) <= 1e-14 * max(1.0, abs(want_y))


def _identities(rho, divisor):
    # verify_inversion's right-hand sides: e_k from R_2g, then every y_k
    chi, (rho0, rho1) = rho[0][0], rho[1]
    g = len(divisor)
    es = [(-1) ** k * chi[g - k] / chi[g] for k in range(1, g + 1)]
    ys = [
        -np.polynomial.polynomial.polyval(p.x, rho0)
        / np.polynomial.polynomial.polyval(p.x, rho1)
        for p in divisor.points
    ]
    return np.array(es + ys)


@given(spaced_branch_points(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_compiled_system_matches_per_coefficient_evaluation(es, seed):
    fam = hyperelliptic_from_branch_points(es)
    per = compute_periods(fam)
    rng = np.random.default_rng(seed)
    D = make_divisor(fam, [random_point(fam, rng) for _ in range(fam.genus)])
    assume(not D.special)
    vals = wp_from_theta(abel_map_divisor(fam, per, D), per)
    compiled = _compiled_system(fam)
    values = {sym: vals.wp(*sym.indices) for sym in compiled.symbols}
    got = _identities(compiled.evaluate(list(values.values())).rho, D)
    system = _derived_system(fam.n, fam.s, fam.extended)
    want = _identities(per_coefficient_system(system, fam, values).rho, D)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


# -- the per-call forms that shape and curve tables replaced, kept as oracles --


def _theta_by_separate_products(z, ctx, order):
    # theta_with_derivs as it read a (terms, g) factor array: a sum, then one
    # product per order
    g = len(z)
    m = _lattice(g, ctx.radius) + ctx.characteristic[0]
    factor = 2j * math.pi * m
    pairs = -4.0 * math.pi ** 2 * (m[:, :, None] * m[:, None, :]).reshape(len(m), -1) + 0j
    phases = np.exp(ctx.quad + factor @ (z + ctx.characteristic[1]))
    out = [complex(np.sum(phases)), phases @ factor, (phases @ pairs).reshape(g, g)]
    weighted = phases[:, None] * factor
    out.append((weighted.T @ pairs).reshape(g, g, g))
    return out[: order + 1], float(np.sum(np.abs(phases)))


@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_theta_table_matches_the_separate_products(g, seed):
    rng = np.random.default_rng(seed)
    tau = _random_riemann_matrix(rng, g)
    ctx = theta_context(tau, tuple(rng.integers(0, 2, size=(2, g)) / 2.0))
    z = rng.uniform(-0.5, 0.5, size=g) + tau @ rng.uniform(-0.5, 0.5, size=g)
    for order in range(4):
        got, scale = theta_with_derivs(z, ctx, order=order)
        want, want_scale = _theta_by_separate_products(z, ctx, order)
        assert len(got) == order + 1 and abs(scale - want_scale) <= 1e-13 * want_scale
        # order k weighs each term by up to (2 pi (radius + 1/2))^k
        for k, (a, b) in enumerate(zip(got, want)):
            assert np.shape(a) == np.shape(b)
            bound = 1e-14 * scale * (2 * math.pi * (ctx.radius + 1)) ** k
            assert np.max(np.abs(np.asarray(a) - b)) <= bound


def _wp_by_z_space_transform(u, per):
    # wp_from_theta as it was: log derivatives in z, then omega^-1 on each
    # index in turn
    g = per.fam.genus
    z = _reduce_modulo_lattice(per.omega_inv @ u, per.theta)
    (val, grad, hess, third), _ = theta_with_derivs(z, per.theta, order=3)
    log1 = grad / val
    log2 = hess / val - np.outer(log1, log1)
    hg = np.multiply.outer(hess, grad)
    log3 = (third / val - (hg + hg.transpose(0, 2, 1) + hg.transpose(2, 0, 1)) / val ** 2
            + 2.0 * np.multiply.outer(np.outer(log1, log1), log1))
    w = per.omega_inv
    partial = (w.T @ (log3 @ w).reshape(g, -1)).reshape(g, g, g)
    return -per.kappa - w.T @ log2 @ w, -(w.T @ partial)


@given(st.one_of(spaced_branch_points(), genus3_branch_points()), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_wp_matches_the_z_space_transform(es, seed):
    fam = hyperelliptic_from_branch_points(es)
    per = compute_periods(fam)
    rng = np.random.default_rng(seed)
    D = make_divisor(fam, [random_point(fam, rng) for _ in range(fam.genus)])
    u = abel_map_divisor(fam, per, D)
    got = wp_from_theta(u, per)
    for a, b in zip((got.wp2, got.wp3), _wp_by_z_space_transform(u, per)):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def _leg_before_tables(es, coeffs, js, xs):
    # _leg's sums as they were taken before its node, weight and cycle tables:
    # x appended as its own column, every factor divided by its own sqrt(r)
    js, xs = np.asarray(js), np.asarray(xs, dtype=complex)
    e = es[js]
    others = es[(js[:, None] + np.arange(1, len(es))) % len(es)][:, None, :]
    r = np.conj((e + xs)[:, None, None] / 2 - others)
    r = r / np.abs(r)
    ts, ws = np.polynomial.legendre.leggauss(hyperell.LEG_NODES)
    ts, ws = (ts + 1) / 2, ws / 2
    x = np.concatenate([e[:, None] + ts ** 2 * (xs - e)[:, None], xs[:, None]], axis=1)
    sqrt_q = np.prod(np.sqrt(r * (x[..., None] - others)) / np.sqrt(r), axis=-1)
    sigma = np.sqrt(xs - e)
    nums = np.polynomial.polynomial.polyval(x[:, :-1], coeffs)
    return (-sigma[:, None] * (nums / sqrt_q[:, :-1]) @ ws).T, sigma * sqrt_q[:, -1]


def _assert_legs_match_before_tables(*args):
    legs, ys = hyperell._leg(*args)
    want, want_ys = _leg_before_tables(*args)
    assert np.max(np.abs(legs - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(ys - want_ys)) <= 1e-13 * max(1.0, np.max(np.abs(want_ys)))


@given(
    st.one_of(spaced_branch_points(), genus3_branch_points()),
    st.lists(_complex, min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_legs_match_the_legs_before_tables(es, xs):
    fam = hyperelliptic_from_branch_points(es)
    with mock.patch.object(hyperell, "_leg", wraps=hyperell._leg) as leg:
        per = compute_periods(fam)
    _assert_legs_match_before_tables(*leg.call_args.args)  # the periods' batch
    branch = per.branch_points.real
    assume(min(np.min(np.abs(x - branch)) for x in xs) >= 0.1 * _spacing(branch))
    js = np.array([int(np.argmin(np.abs(x - branch))) for x in xs])
    _assert_legs_match_before_tables(branch, per.du, js, xs)  # an Abel batch


def _branch_image(omega, omega_prime, j):
    # A(e_j) one branch point at a time, as compute_periods built it before
    # the shape's half-characteristic table
    k = np.arange(len(omega))
    return omega @ ((k < (j + 1) // 2) / 2) + omega_prime @ ((k == j // 2) / 2)


@given(st.one_of(spaced_branch_points(), genus3_branch_points()))
@settings(max_examples=30, deadline=None)
def test_branch_images_match_the_per_point_images(es):
    per = compute_periods(hyperelliptic_from_branch_points(es))
    size = np.max(np.abs(np.concatenate([per.omega, per.omega_prime])))
    assert per.branch_images.shape == (2 * per.fam.genus + 1, per.fam.genus)
    for j, image in enumerate(per.branch_images):
        want = _branch_image(per.omega, per.omega_prime, j)
        assert np.max(np.abs(image - want)) <= 4 * np.finfo(float).eps * size


@pytest.mark.parametrize("es", [_SPAN_BRANCH[1], _SPAN_BRANCH[2], _SPAN_BRANCH[3]],
                         ids=["2,3", "2,5", "2,7"])
def test_wp_gather_reads_each_symbol_as_wp_does(es):
    fam = hyperelliptic_from_branch_points(np.array(es) - np.mean(es))
    per = compute_periods(fam)
    system = _compiled_system(fam)
    rng = np.random.default_rng(fam.s)
    for _ in range(3):
        D = make_divisor(fam, [random_point(fam, rng) for _ in range(fam.genus)])
        vals = wp_from_theta(abel_map_divisor(fam, per, D), per)
        gathered = np.concatenate([vals.wp2.ravel(), vals.wp3.ravel()])[_symbol_index(fam)]
        want = np.array([vals.wp(*sym.indices) for sym in system.symbols])
        assert gathered.tobytes() == want.tobytes()
        # and the report reads the system at them, y by scalar Horner
        rho = system.evaluate(want).rho
        report = verify_inversion(fam, D, per)
        polyval = np.polynomial.polynomial.polyval
        for p, check in zip(D.points, report[fam.genus :]):
            y = -complex(polyval(p.x, rho[1, 0])) / complex(polyval(p.x, rho[1, 1]))
            assert abs(check.rhs - y) <= 1e-15 * abs(y)


def test_verify_inversion_runs_each_guard_once():
    fam = genus2_family()
    per = compute_periods(fam)
    D = make_divisor(fam, [random_point(fam, np.random.default_rng(5)) for _ in range(2)])
    sheets = mock.patch.object(hyperell, "_require_two_sheets", wraps=hyperell._require_two_sheets)
    finite = mock.patch.object(hyperell, "require_finite_points",
                               wraps=hyperell.require_finite_points)
    with sheets as two_sheets, finite as finite_points:
        verify_inversion(fam, D, per)
    assert two_sheets.call_count == 1 and finite_points.call_count == 1


def test_shape_tables_are_read_only():
    per = compute_periods(genus2_family())
    _, *tables = hyperell._shape_tables(2, 5, False)
    tables += hyperell._leg_tables(5)
    # and the genus's characteristic, and the curve's grid map
    tables += (*_riemann_characteristic(2), per.grid_base, per.grid_map)
    assert per.du is tables[0]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1


def test_one_shape_builds_its_tables_once():
    hyperell._shape_tables.cache_clear()
    hyperell._leg_tables.cache_clear()
    rng = np.random.default_rng(3)
    first, second = compute_periods(random_genus2(rng)), compute_periods(random_genus2(rng))
    assert hyperell._shape_tables.cache_info().misses == 1
    assert hyperell._leg_tables.cache_info().misses == 1
    assert first.du is second.du


# -- the per-curve theta table that the cached one replaced, kept as oracle ----


def _theta_arrays_per_curve(tau, characteristic, radius):
    # ThetaContext's arrays as its constructor built them for every curve
    tau = np.array(tau, dtype=complex)
    g = len(tau)
    m = _lattice(g, radius) + np.array(characteristic[0], dtype=float)
    products = (m[:, :, None] * m[:, None, :]).reshape(len(m), -1)
    table = np.concatenate([np.ones((len(m), 1)), 2j * math.pi * m,
                            -4.0 * math.pi ** 2 * products + 0j], axis=1)
    return {"quad": 1j * math.pi * (products @ tau.ravel()),
            "factor": np.ascontiguousarray(table[:, 1 : g + 1].T), "table": table,
            "pairs": table[:, g + 1 :], "im_tau_inv": np.linalg.inv(tau.imag)}


@given(st.integers(1, 3), st.sampled_from([1, 2, 4, 6]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_cached_theta_table_equals_the_per_curve_one(g, radius, seed):
    rng = np.random.default_rng(seed)
    tau = _random_riemann_matrix(rng, g)
    characteristics = list(_all_characteristics(g))
    for pick in rng.choice(len(characteristics), size=min(4, len(characteristics)), replace=False):
        d1, d2 = characteristics[pick]
        ctx = ThetaContext(tau, (d1, d2), radius)
        for name, want in _theta_arrays_per_curve(tau, (d1, d2), radius).items():
            got = getattr(ctx, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable, name


def test_one_theta_table_per_genus_radius_and_characteristic():
    rng = np.random.default_rng(11)
    first = compute_periods(random_genus2(rng))
    second = next(per for per in (compute_periods(random_genus2(rng)) for _ in range(50))
                  if per.theta.radius == first.theta.radius)
    assert second.theta.tau.tobytes() != first.theta.tau.tobytes()
    for name in ("factor", "table", "pairs"):
        assert getattr(first.theta, name) is getattr(second.theta, name)
        with pytest.raises(ValueError, match="read-only"):
            getattr(first.theta, name)[0, 0] = 1
    # another characteristic or radius is another table
    d1, d2 = first.theta.characteristic
    other = ThetaContext(first.tau, (np.zeros(2), d2), first.theta.radius)
    wider = ThetaContext(first.tau, (d1, d2), first.theta.radius + 1)
    assert other.table is not first.theta.table and wider.table is not first.theta.table


def test_each_curve_constant_is_built_once(monkeypatch):
    fam = genus2_family()
    compute_periods(fam)  # the shape's and the theta table's caches filled
    spies, calls = {}, mock.Mock()
    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "inv"), (np.linalg, "solve"),
                         (hyperell, "curve_polynomial")):
        spies[name] = mock.Mock(wraps=getattr(module, name))
        calls.attach_mock(spies[name], name)
        monkeypatch.setattr(module, name, spies[name])
    per = compute_periods(fam)
    # one eigvalsh of sym(Im tau), shared by the tau gate and the theta radius
    assert spies["eigvalsh"].call_count == 1
    # omega is inverted once, before the one solve, which orients the
    # b-cycles; the other inv is theta's (Im tau)^-1, and the characteristic
    # check solves nothing
    order = [name for name, *_ in calls.mock_calls if name in ("inv", "solve")]
    assert order == ["inv", "solve", "inv"]
    inverted = [call.args[0] for call in spies["inv"].call_args_list]
    assert inverted[0] is per.omega and np.array_equal(inverted[1], per.tau.imag)
    assert spies["solve"].call_args.args[0] is per.omega
    assert spies["curve_polynomial"].call_count == 1


# -- the grid through wp values and the gather, kept as oracle ---------------


def _grid_by_gather(u, per):
    # the grid as verify_inversion read it before the fold into grid_map:
    # wp_from_theta, the gather by each symbol's index, then the system
    # compiled at lambda
    vals = wp_from_theta(u, per)
    wp = np.concatenate([vals.wp2.ravel(), vals.wp3.ravel()])
    return _compiled_system(per.fam).evaluate(wp[_symbol_index(per.fam)]).rho


def _report_by_gather(fam, divisor, per):
    # verify_inversion's (lhs, rhs) pairs, read off that grid as it read them
    g = fam.genus
    rho = _grid_by_gather(abel_map_divisor(fam, per, divisor), per)
    chi, (rho0, rho1) = rho[0, 0], rho[1]
    e = [1 + 0j] + [0j] * g
    for p in divisor.points:
        for k in range(g, 0, -1):
            e[k] += p.x * e[k - 1]
    pairs = [(e[k], complex((-1) ** k * chi[g - k] / chi[g])) for k in range(1, g + 1)]
    rho0, rho1 = rho0[::-1].tolist(), rho1[::-1].tolist()
    for p in divisor.points:
        num = den = 0j
        for a, b in zip(rho0, rho1):
            num, den = num * p.x + a, den * p.x + b
        pairs.append((p.y, -num / den))
    return pairs


@given(st.one_of(spaced_branch_points(), genus3_branch_points()), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_fused_grid_equals_the_gathered_grid(es, seed):
    fam = hyperelliptic_from_branch_points(es)
    per = compute_periods(fam)
    rng = np.random.default_rng(seed)
    D = make_divisor(fam, [random_point(fam, rng) for _ in range(fam.genus)])
    u = abel_map_divisor(fam, per, D)
    want = _grid_by_gather(u, per)
    logs = hyperell._log_theta_derivatives(u, per)
    got = per.grid_base + (logs @ per.grid_map).reshape(per.grid_base.shape)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _hyper_loop_pool(seed):
    # the curves and divisors of the hyper-loop benchmark pool (nsbench) at a
    # seed, drawn in its order: 21 curves of genus 1 and 2 in turn, real branch
    # points more than 0.25 apart, and three divisors on each
    rng = np.random.default_rng([seed, 4])
    for idx in range(21):
        genus = 1 + idx % 2
        while True:
            es = np.sort(rng.uniform(-2.2, 2.2, size=2 * genus + 1))
            es -= es.mean()
            if min(np.diff(es)) > 0.25:
                break
        fam = hyperelliptic_from_branch_points(es)
        divisors = []
        for _ in range(3):
            points = []
            for _ in range(genus):
                x = complex(rng.normal(0.0, 1.4), rng.normal(0.0, 1.4))
                y = np.sqrt(np.prod(x - es)) * (1 if rng.integers(2) else -1)
                points.append(CurvePoint(x, complex(y)))
            divisors.append(make_divisor(fam, points))
        yield fam, divisors


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_inversion_equals_the_gathered_path_bit_for_bit(seed):
    for fam, divisors in _hyper_loop_pool(seed):
        per = compute_periods(fam)
        for D in divisors:
            got = [(c.lhs, c.rhs) for c in verify_inversion(fam, D, per)]
            want = _report_by_gather(fam, D, per)
            assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("which", [1, 2, 3], ids=["gradient", "hessian", "third"])
def test_a_non_finite_theta_derivative_refuses_the_grid(monkeypatch, which):
    # one NaN entry in one derivative tensor reaches every grid entry, so the
    # one gate refuses the grid, with no numpy warning on the way
    fam = genus2_family()
    per = compute_periods(fam)
    D = make_divisor(fam, [random_point(fam, np.random.default_rng(5)) for _ in range(2)])
    theta_sums = hyperell.theta_with_derivs

    def poisoned(z, ctx, order=0):
        out, scale = theta_sums(z, ctx, order)
        if order == 3:
            out[which] = out[which].copy()
            out[which].flat[1] = complex(NAN, 0.0)
        return out, scale

    monkeypatch.setattr(hyperell, "theta_with_derivs", poisoned)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteValue) as refusal:
            verify_inversion(fam, D, per)
    assert str(refusal.value) == "the grid of the inversion system at A(D) is not finite"


# -- a tau in any layout reads as its contiguous complex copy -----------------


def _gate_reads(tau):
    # every value and limit the tau gate reads, then the context or the refusal
    reads = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("at_most", "above"):
            def spy(value, limit, *rest, gate=getattr(theta_module, name)):
                reads.append(repr((value, limit)))
                return gate(value, limit, *rest)
            mp.setattr(theta_module, name, spy)
        try:
            ctx = theta_context(tau)
        except NonSymmetricTau as refusal:
            return reads, str(refusal)
    return reads, (ctx.radius, ctx.tau.tobytes(), ctx.quad.tobytes(), ctx.im_tau_inv.tobytes())


_LAYOUT_TAUS = [
    _random_riemann_matrix(np.random.default_rng(1), 1),
    _random_riemann_matrix(np.random.default_rng(2), 2),
    _random_riemann_matrix(np.random.default_rng(3), 3),
    np.array([[1j, 0.5], [0.2, 1j]]),
    -1j * np.eye(2),
    np.array([[1e300j, 1e300], [0.0, 1e300j]]),
]


@pytest.mark.parametrize("tau", _LAYOUT_TAUS,
                         ids=["g1", "g2", "g3", "non-symmetric", "im-negative", "extreme"])
def test_theta_context_reads_any_layout_as_its_contiguous_copy(tau):
    g = len(tau)
    want = _gate_reads(np.array(tau, dtype=complex, order="C"))
    strided = np.zeros((2 * g, 3 * g), dtype=complex)
    strided[::2, ::3] = tau
    for layout in (np.asfortranarray(tau), strided[::2, ::3]):
        assert not layout.flags.c_contiguous or g == 1
        assert _gate_reads(layout) == want
    # a real tau is refused, with the reads of its complex copy
    real = np.ascontiguousarray(tau.real)
    want = _gate_reads(real.astype(complex))
    assert "needs > 0" in want[1]
    assert _gate_reads(real) == want and _gate_reads(np.asfortranarray(real)) == want


# -- Legendre's relation ------------------------------------------------------


# the worst |eta omega'^T - eta' omega^T + 2 pi i I| on five demo curves per
# genus (one rng, seed 5, genus 1 then 2 then 3; numpy 2.4.6 on x86-64) is
# 1.8e-15, 4.6e-14 and 2.0e-13; each bound is 10 times its genus's
LEGENDRE_BOUND = {1: 1.8e-14, 2: 4.6e-13, 3: 2.0e-12}


def _legendre_defect(fam):
    # eta' from the dr columns of the same interval integrals, summed over the
    # same tails and flipped by the same signs as omega'
    with mock.patch.object(hyperell, "_interval_integrals",
                           wraps=hyperell._interval_integrals) as integrals:
        per = compute_periods(fam)
    ints, _ = _interval_integrals(*integrals.call_args.args)
    g = fam.genus
    b = -2.0 * np.cumsum(ints[-1::-2], axis=0)[::-1]
    flips = np.sign((per.omega_inv @ b[:, :g].T).diagonal().imag)
    assert (b[:, :g].T * flips).tobytes() == per.omega_prime.tobytes()
    eta_prime = b[:, g:].T * flips
    legendre = per.eta @ per.omega_prime.T - eta_prime @ per.omega.T
    return float(np.max(np.abs(legendre + 2j * math.pi * np.eye(g))))


def test_legendre_relation_on_the_demo_curves():
    rng = np.random.default_rng(5)
    for g in (1, 2, 3):
        worst = max(_legendre_defect(cli._demo_family(g, rng)) for _ in range(5))
        assert worst <= LEGENDRE_BOUND[g], (g, worst)
