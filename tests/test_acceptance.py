"""Acceptance gate: one check per criterion, at the stated tolerances.

Each test prints a single summary line; the symbolic criteria run at zero
tolerance, the numeric ones at their stated bounds and time budgets.
"""
import time
from fractions import Fraction

import numpy as np

import test_expansions as expansions_suite
import test_golden as golden_suite
from nscurves.abelian import (
    build_inversion_system,
    emit_system,
    log_sigma_derivative_expansion,
)
from nscurves.algebra import WeightedPoly
from nscurves.cli import _max_recovery_error
from nscurves.curves import check_nondegenerate, make_family
from nscurves.divisors import (
    chi_polynomial,
    make_divisor,
    random_divisor,
    rfunctions_from_divisor,
    solve_divisor,
)
from nscurves.expansions import (
    associated_second_kind,
    check_rcond,
    expand_at_infinity,
    first_kind_basis,
)
from nscurves.hyperell import (
    abel_map_divisor,
    compute_periods,
    hyperelliptic_from_branch_points,
    verify_inversion,
    wp_from_theta,
)
from nscurves.theta import ThetaContext, theta_context, theta_with_derivs

ONE = WeightedPoly.one()
ZERO = WeightedPoly.zero()


def all_golden_families():
    for name, n, s, ext in golden_suite.GOLDEN_TARGETS:
        yield name, make_family(n, s, "sym", extended=ext)


def test_criterion_1_theorem_golden_suite():
    started = time.time()
    for name, fam in all_golden_families():
        system = build_inversion_system(fam)
        assert emit_system(system, fmt="json") == golden_suite.golden_text(
            name
        ), name
    elapsed = time.time() - started
    assert elapsed < 30.0
    print(
        f"criterion 1 (theorem golden suite, exact): PASS "
        f"[{len(golden_suite.GOLDEN_TARGETS)} systems, {elapsed:.1f}s]"
    )


def test_criterion_2_associated_system_suite():
    started = time.time()
    checked = 0
    for name, fam in all_golden_families():
        # order 10 covers every residue window; the default order scales
        # with genus and is needlessly slow for the deep symbolic families
        chart = expand_at_infinity(fam, 10)
        first = first_kind_basis(chart)
        second = associated_second_kind(chart, first)
        matrix = check_rcond(first, second)
        for i, w in enumerate(first.gaps):
            for l in range(len(second.dr_series)):
                expected = ONE if w == l + 1 else ZERO
                assert matrix[i][l] == expected, (name, w, l + 1)
        key = (fam.n, fam.s, fam.extended)
        tables = expansions_suite.CORRECTED_NUMERATORS[key]
        assert len(second.numerators) == len(tables), name
        for got, table in zip(second.numerators, tables):
            assert got == expansions_suite.entire(fam, table), name
        checked += 1
    print(
        f"criterion 2 (associated systems, exact): PASS "
        f"[{checked} families, {time.time() - started:.1f}s]"
    )


def test_criterion_3_puiseux_suite():
    started = time.time()
    expansions_suite.test_puiseux_trigonal_3m1(4)
    expansions_suite.test_puiseux_trigonal_3m1(7)
    expansions_suite.test_puiseux_trigonal_3m2(5)
    expansions_suite.test_puiseux_trigonal_3m2(8)
    expansions_suite.test_puiseux_tetragonal_4m1()
    expansions_suite.test_puiseux_tetragonal_4m3()
    expansions_suite.test_puiseux_pentagonal_5m1()
    expansions_suite.test_puiseux_pentagonal_5m2()
    expansions_suite.test_puiseux_pentagonal_5m3()
    expansions_suite.test_puiseux_pentagonal_5m4()
    print(
        f"criterion 3 (Puiseux expansions, exact): PASS "
        f"[8 parameterizations, {time.time() - started:.1f}s]"
    )


def _random_unit_family(n, s, rng):
    from nscurves.curves import admissible_indices

    while True:
        lam = {
            k: round(rng.uniform(-1.0, 1.0), 6)
            for k in admissible_indices(n, s)
        }
        fam = make_family(n, s, lam)
        try:
            check_nondegenerate(fam, tol=1e-3)
        except Exception:
            continue
        return fam


def test_criterion_4_divisor_round_trip():
    started = time.time()
    worst = 0.0
    for n, s in ((2, 5), (3, 4), (3, 5), (4, 5)):
        rng = np.random.default_rng(1000 * n + s)
        fam = _random_unit_family(n, s, rng)
        for trial in range(20):
            divisor = random_divisor(fam, rng)
            system = rfunctions_from_divisor(
                fam, divisor, seed=int(rng.integers(2 ** 62))
            )
            chi = chi_polynomial(system)
            assert len(chi) == fam.genus + 1
            assert abs(chi[-1]) > 1e-10 * np.max(np.abs(chi))
            recovered = solve_divisor(system)
            err = _max_recovery_error(recovered.points, divisor.points)
            worst = max(worst, err)
            assert err < 1e-6, (n, s, trial, err)
    elapsed = time.time() - started
    assert elapsed < 60.0
    print(
        f"criterion 4 (divisor round trip < 1e-6): PASS "
        f"[4 families x 20 divisors, worst {worst:.1e}, {elapsed:.1f}s]"
    )


def test_criterion_5_hyperelliptic_end_to_end():
    started = time.time()
    fam = make_family(2, 3, {4: -1.25, 6: 0.4})
    periods = compute_periods(fam)
    rng = np.random.default_rng(17)
    worst_g1 = 0.0
    for _ in range(10):
        a, b = rng.uniform(0.15, 0.85, size=2)
        u = a * periods.omega[:, 0] + b * periods.omega_prime[:, 0]
        vals = wp_from_theta(u, periods)
        x = vals.wp(1, 1)
        y = -0.5 * vals.wp(1, 1, 1)
        residual = abs(fam.eval_f(x, y))
        worst_g1 = max(worst_g1, residual)
        assert residual < 1e-8
    rng = np.random.default_rng(23)
    worst_g2 = 0.0
    for _ in range(20):
        while True:
            es = np.sort(rng.uniform(-2.2, 2.2, size=5))
            es -= es.mean()
            if min(np.diff(es)) > 0.25:
                break
        fam2 = hyperelliptic_from_branch_points(es)
        periods2 = compute_periods(fam2)
        points = []
        for _ in range(2):
            x = rng.normal(0.0, 1.4) + 1j * rng.normal(0.0, 1.4)
            points.append(fam2.lift_x_to_points(x)[int(rng.integers(2))])
        report = verify_inversion(fam2, make_divisor(fam2, points), periods2)
        err = max(c.abs_err for c in report)
        worst_g2 = max(worst_g2, err)
        assert err < 1e-6
    elapsed = time.time() - started
    assert elapsed < 300.0
    print(
        f"criterion 5 (hyperelliptic end to end): PASS "
        f"[(2,3) worst {worst_g1:.1e} < 1e-8, "
        f"(2,5) worst {worst_g2:.1e} < 1e-6, {elapsed:.1f}s]"
    )


def test_criterion_6_invariant_suites():
    started = time.time()
    # ring axioms on sampled exact polynomials
    rng = np.random.default_rng(3)
    polys = []
    for _ in range(6):
        terms = {}
        for _ in range(3):
            key = ((int(rng.integers(1, 9)), int(rng.integers(1, 3))),)
            terms[key] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
        polys.append(WeightedPoly(terms))
    for a in polys[:2]:
        for b in polys[2:4]:
            for c in polys[4:]:
                assert (a + b) * c == a * c + b * c
                assert a * b == b * a
                assert (a * b) * c == a * (b * c)
    # weight homogeneity of the sigma-derivative expansion
    fam = make_family(3, 4, "sym")
    chart = expand_at_infinity(fam, 11)
    first = first_kind_basis(chart)
    expansion = log_sigma_derivative_expansion(first, 3)
    for p, term in enumerate(expansion):
        assert term.weight == p + 1
    # tau symmetry and theta quasi-periodicity on the reference curve
    es = np.array([-1.92, -1.12, -0.32, 0.58, 1.38])
    fam2 = hyperelliptic_from_branch_points(es - es.mean())
    periods = compute_periods(fam2)
    assert np.linalg.norm(periods.tau - periods.tau.T) < 1e-8
    assert np.all(np.linalg.eigvalsh(periods.tau.imag) > 0)
    # z + tau e_1 is not reduced, so it needs a wider cube than theta_context's
    base = theta_context(periods.tau)
    ctx = ThetaContext(periods.tau, base.characteristic, base.radius + 2)
    z = np.array([0.21 - 0.07j, -0.33 + 0.11j])
    ratio = (theta_with_derivs(z + periods.tau[:, 0], ctx)[0][0]
             / theta_with_derivs(z, ctx)[0][0])
    expected = np.exp(
        -1j * np.pi * periods.tau[0, 0] - 2j * np.pi * z[0]
    )
    assert abs(ratio - expected) < 1e-10
    # finite-difference consistency of the wp hierarchy
    fam3 = make_family(2, 3, {4: -1.25, 6: 0.4})
    periods3 = compute_periods(fam3)
    point = fam3.lift_x_to_points(1.7)[0]
    u = abel_map_divisor(fam3, periods3, make_divisor(fam3, [point]))
    h = 1e-5
    fd = (
        wp_from_theta(u + np.array([h]), periods3).wp(1, 1)
        - wp_from_theta(u - np.array([h]), periods3).wp(1, 1)
    ) / (2 * h)
    assert abs(fd - wp_from_theta(u, periods3).wp(1, 1, 1)) < 1e-5
    print(
        f"criterion 6 (module invariant suites): PASS "
        f"[ring axioms, weight homogeneity, tau symmetry, "
        f"theta quasi-periodicity, fd consistency, {time.time() - started:.1f}s]"
    )
