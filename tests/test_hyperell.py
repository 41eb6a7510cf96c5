"""Numeric period, theta, and inversion checks on two-sheeted curves."""
import functools
import math
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nscurves import hyperell
from nscurves.algebra import WeightedPoly, residue_of_product
from nscurves.curves import CurvePoint, make_family
from nscurves.divisors import make_divisor
from nscurves.errors import (
    BranchCollision,
    ComplexBranchPoints,
    NonSymmetricTau,
    NotTwoSheeted,
    NSCurveError,
    OnThetaDivisor,
    SheetLoss,
    SpecialDivisor,
    UnsupportedGenus,
)
from nscurves.expansions import expand_at_infinity, first_kind_basis
from nscurves.hyperell import (
    ThetaContext,
    _check_riemann_characteristic,
    _check_riemann_matrix,
    _dr_numerators,
    _gl_nodes,
    _orient_b_cycles,
    _reduce_modulo_lattice,
    _riemann_characteristic,
    _track_sheet,
    abel_map,
    abel_map_divisor,
    branch_points,
    compute_periods,
    curve_polynomial,
    hyperelliptic_from_branch_points,
    report_payload,
    theta,
    theta_context,
    theta_with_derivs,
    verify_inversion,
    wp_from_theta,
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


def test_branch_point_builder_rejects_even_count():
    with pytest.raises(ValueError):
        hyperelliptic_from_branch_points([-1.0, 1.0])


def test_branch_collision_detected():
    # (x+1)^2 (x-2): a genuine double branch point
    fam = make_family(2, 3, {4: -3.0, 6: -2.0})
    with pytest.raises(BranchCollision):
        branch_points(fam)


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


def test_quadrature_refinement_stable():
    fam = genus2_family()
    a = compute_periods(fam, panels=32, nodes=16)
    b = compute_periods(fam, panels=64, nodes=16)
    assert np.max(np.abs(a.omega - b.omega)) < 1e-10
    assert np.max(np.abs(a.omega_prime - b.omega_prime)) < 1e-10
    assert np.max(np.abs(a.eta - b.eta)) < 1e-10


def test_legendre_symmetry_of_eta_omega_inverse():
    for fam in (genus1_family(), genus2_family()):
        per = compute_periods(fam)
        assert per.legendre_defect < 1e-10


def test_coarse_quadrature_loses_the_sheet():
    with pytest.raises(SheetLoss, match=r"worst relative step [0-9.e+-]+ > 0\.75"):
        compute_periods(genus2_family(), panels=1, nodes=2)


def test_genus_above_the_cap_refused_before_any_theta_sum(monkeypatch):
    def no_theta(*args, **kwargs):
        raise AssertionError("a theta lattice was built")

    monkeypatch.setattr(hyperell, "_lattice", no_theta)
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
    chart = expand_at_infinity(fam)
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
        for row in _dr_numerators(p)
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
        assert [r.tobytes() for r in got] == [r.tobytes() for r in _dr_table(fam)]


# -- sheet tracking and quadrature rules -------------------------------------


def _track_sheet_by_node(p, xs, y_start):
    # the node-by-node walk that _track_sheet replaces, kept as its oracle
    ys = np.empty(len(xs), dtype=complex)
    prev = y_start
    for idx, x in enumerate(xs):
        root = np.sqrt(complex(np.polyval(p[::-1], x)))
        if prev is not None and abs(-root - prev) < abs(root - prev):
            root = -root
        ys[idx] = prev = root
    return ys


def _gl_nodes_by_panel(panels, nodes, a, b):
    # the panel-by-panel rule that _gl_nodes replaces, kept as its oracle
    base, weights = np.polynomial.legendre.leggauss(nodes)
    ts, ws = [], []
    edges = np.linspace(a, b, panels + 1)
    for left, right in zip(edges[:-1], edges[1:]):
        half = (right - left) / 2
        ts.append(half * base + (left + right) / 2)
        ws.append(half * weights)
    return np.concatenate(ts), np.concatenate(ws)


_coord = st.floats(-2.5, 2.5, allow_nan=False, allow_infinity=False)
_complex = st.builds(complex, _coord, _coord)


@st.composite
def sheet_paths(draw):
    genus = draw(st.sampled_from([1, 2]))
    lam = {k: draw(_complex) for k in range(4, 4 * genus + 3, 2)}
    p = curve_polynomial(make_family(2, 2 * genus + 1, lam))
    panels, nodes = draw(st.integers(1, 8)), draw(st.integers(2, 12))
    if draw(st.booleans()):
        ts, _ = _gl_nodes(panels, nodes, 0.0, 2.0 * math.pi)
        ax, ay = draw(st.floats(0.05, 3.0)), draw(st.floats(0.05, 3.0))
        xs = draw(_complex) + ax * np.cos(ts) + 1j * ay * np.sin(ts)
    else:
        ts, _ = _gl_nodes(panels, nodes, 0.0, 1.0)
        start, end = draw(_complex), draw(_complex)
        xs = start + ts * (end - start)
    y_start = draw(st.one_of(st.none(), st.just(0j), _complex))
    return p, xs, y_start


# y^2 = x^3 - x along [-1/2, 1/2]: the middle node of an odd rule is the
# branch point 0 itself, so the walk meets two ties in a row there
_THROUGH_ZERO = (
    curve_polynomial(make_family(2, 3, {4: -1.0})),
    -0.5 + _gl_nodes(1, 5, 0.0, 1.0)[0].astype(complex),
    -0.3 + 0.1j,
)


@given(sheet_paths())
@example(_THROUGH_ZERO)
@settings(max_examples=200, deadline=None)
def test_track_sheet_matches_node_by_node_walk(case):
    p, xs, y_start = case
    got = _track_sheet(p, xs, y_start)
    want = _track_sheet_by_node(p, xs, y_start)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "panels,nodes,a,b",
    [(1, 2, 0.0, 1.0), (32, 16, 0.0, 2.0 * math.pi), (7, 5, -1.5, 0.25)],
)
def test_gl_nodes_match_panel_loop_and_stay_read_only(panels, nodes, a, b):
    ts, ws = _gl_nodes(panels, nodes, a, b)
    want_ts, want_ws = _gl_nodes_by_panel(panels, nodes, a, b)
    assert ts.tobytes() == want_ts.tobytes()
    assert ws.tobytes() == want_ws.tobytes()
    with pytest.raises(ValueError):
        ts[0] = 9.0
    with pytest.raises(ValueError):
        ws *= 2.0
    again_ts, again_ws = _gl_nodes(panels, nodes, a, b)
    assert again_ts.tobytes() == want_ts.tobytes()
    assert again_ws.tobytes() == want_ws.tobytes()


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
                _reduce_modulo_lattice(np.linalg.solve(periods.omega, u), periods.tau)
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
    passing = []
    for d1, d2 in _all_characteristics(g):
        ctx = ThetaContext(per.tau, (d1, d2), per.theta.radius)
        try:
            _check_riemann_characteristic(ctx, per.omega, per.infinity_leg[0])
        except OnThetaDivisor:
            continue
        passing.append((d1.tolist(), d2.tolist()))
    want = _riemann_characteristic(g)
    assert passing == [(want[0].tolist(), want[1].tolist())]


def test_wrong_characteristic_fails_the_gate_with_its_margin(monkeypatch):
    even = (np.zeros(2), np.zeros(2))
    monkeypatch.setattr(hyperell, "_riemann_characteristic", lambda g: even)
    margin = r"\|theta\|/scale [0-9.e+-]+ > 1e-06"
    with pytest.raises(OnThetaDivisor, match=margin):
        compute_periods(genus2_family())


# -- theta -------------------------------------------------------------------


def test_theta_constant_at_square_lattice():
    ctx = theta_context(np.array([[1j]]))
    value = theta(np.array([0.0]), ctx)
    assert abs(value - math.pi ** 0.25 / math.gamma(0.75)) < 1e-12


def test_theta_cutoff_saturated():
    per = compute_periods(genus2_family())
    ctx = theta_context(per.tau)
    wide = theta_context(per.tau)
    wide.radius = ctx.radius + 2
    z = np.array([0.31 + 0.12j, -0.22 + 0.05j])
    assert abs(theta(z, ctx) - theta(z, wide)) < 1e-12


def test_theta_odd_characteristic_vanishes():
    ctx = theta_context(np.array([[0.8j]]), (np.array([0.5]), np.array([0.5])))
    assert abs(theta(np.array([0.0]), ctx)) < 1e-13


def test_theta_quasi_periodicity():
    per = compute_periods(genus2_family())
    ctx = theta_context(per.tau, z_bound=4.0)
    z = np.array([0.21 - 0.07j, -0.33 + 0.11j])
    shifted = theta(z + per.tau[:, 0], ctx)
    ratio = shifted / theta(z, ctx)
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
    for key, value in plus.wp2.items():
        assert abs(value - minus.wp2[key]) < 1e-8
    for key, value in plus.wp3.items():
        assert abs(value + minus.wp3[key]) < 1e-8


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


# -- Abel map ----------------------------------------------------------------


def test_abel_of_infinity_is_zero():
    fam = genus1_family()
    per = compute_periods(fam)
    assert np.all(abel_map(fam, per, None) == 0)


def test_abel_landing_off_the_curve_reports_its_miss():
    fam = genus1_family()
    per = compute_periods(fam)
    P = fam.lift_x_to_points(1.3 + 0.4j)[0]
    miss = r"nearest sheet [0-9.e+-]+ away, tolerance 0\.0001"
    with pytest.raises(SheetLoss, match=miss):
        abel_map(fam, per, CurvePoint(P.x, 1.5 * P.y))


def test_abel_odd_under_sheet_swap():
    fam = genus2_family()
    per = compute_periods(fam)
    P = fam.lift_x_to_points(1.3 + 0.4j)[0]
    u = abel_map(fam, per, P)
    v = abel_map(fam, per, CurvePoint(P.x, -P.y))
    assert np.max(np.abs(u + v)) < 1e-12


def test_abel_path_independent_modulo_lattice():
    fam = genus2_family()
    per = compute_periods(fam)
    P = fam.lift_x_to_points(-1.5 + 0.2j)[0]
    u = abel_map(fam, per, P)
    v = abel_map(fam, per, P, panels=96)
    lattice = np.hstack([per.omega, per.omega_prime])
    coeffs = np.linalg.lstsq(
        np.vstack([lattice.real, lattice.imag]),
        np.concatenate([(u - v).real, (u - v).imag]),
        rcond=None,
    )[0]
    assert np.max(np.abs(coeffs - np.round(coeffs))) < 1e-7


def test_abel_round_trip_genus1():
    fam = genus1_family()
    per = compute_periods(fam)
    rng = np.random.default_rng(5)
    for _ in range(10):
        P = random_point(fam, rng)
        vals = wp_from_theta(abel_map(fam, per, P), per)
        assert abs(vals.wp(1, 1) - P.x) < 1e-7
        assert abs(-0.5 * vals.wp(1, 1, 1) - P.y) < 1e-7


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
    want_tau, want_omega, want_omega_prime = _orient_by_search(*orient.call_args.args)
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
    tau, got_omega_prime = _orient_b_cycles(omega, omega_prime)
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
    with pytest.raises(NonSymmetricTau):
        _orient_b_cycles(omega, omega_prime)
    with pytest.raises(NonSymmetricTau):
        _orient_by_search(omega, omega_prime)


@pytest.mark.parametrize(
    "tau, margin",
    [
        (np.array([[1j, 0.5], [0.2, 1j]]), r"symmetry defect 2\.804e-01"),
        (-1j * np.eye(2), r"least eigenvalue of sym\(Im tau\) -1\.000e\+00"),
        (np.full((2, 2), complex(np.nan, np.nan)), "symmetry defect nan"),
    ],
    ids=["non-symmetric", "im-negative-definite", "nan"],
)
def test_tau_gate_reports_its_margins(tau, margin):
    with pytest.raises(NonSymmetricTau, match=margin) as info:
        _check_riemann_matrix(tau)
    assert "tolerance 1e-08" in str(info.value)
    assert "needs > 1e-12" in str(info.value)


@pytest.mark.parametrize(
    "tau, margin",
    [
        (-1j * np.eye(2), r"-1\.000e\+00"),
        (np.full((2, 2), complex(np.nan, np.nan)), "nan"),
    ],
    ids=["im-negative-definite", "nan"],
)
def test_theta_context_refuses_im_tau_not_positive(tau, margin):
    with pytest.raises(NonSymmetricTau, match=f"least eigenvalue {margin}"):
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
