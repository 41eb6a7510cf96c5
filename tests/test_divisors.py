"""Forward construction and backward recovery of divisors."""
import re
import warnings
from fractions import Fraction
from itertools import permutations
import math
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_curves import SHAPES, unit_family
from nscurves import divisors
from nscurves.abelian import build_inversion_system
from nscurves.curves import CurveFamily, CurvePoint, make_family
from nscurves.divisors import (
    BATCH_POINTS,
    CLUSTER_TOL,
    NumericRSystem,
    _clusters,
    _worst_residual,
    chi_polynomial,
    compile_system,
    divisor_from_payload,
    divisor_payload,
    make_divisor,
    random_divisor,
    rfunctions_from_divisor,
    solve_divisor,
)
from nscurves.expansions import second_kind_count
from nscurves.errors import (
    CoordinateOverflow,
    DegenerateDeterminant,
    DegreeCollapse,
    MalformedGrid,
    NonFiniteValue,
    NSCurveError,
    NullSpaceDimensionError,
    RootFindingFailure,
    SpecialDivisor,
    above,
    at_most,
)

LAMBDAS = {
    (2, 3): {4: -1.25, 6: 0.4},
    (2, 5): {4: -1.0, 6: 0.5, 8: 0.25, 10: -0.75},
}


def family(n, s):
    spec = LAMBDAS.get((n, s), "unit")
    if spec == "unit":
        fam = make_family(n, s, "sym")
        lam = {
            k: 0.3 + 0.1 * (idx % 5) for idx, k in enumerate(sorted(fam.lam))
        }
        return make_family(n, s, lam)
    return make_family(n, s, spec)


def sorted_points(points):
    return sorted(points, key=lambda p: (p.x.real, p.x.imag, p.y.real, p.y.imag))


def padded(fam, rows):
    """Hand-written cells of ascending coefficients in NumericRSystem's layout.

    Each cell is zero-padded to the grid's depth d, with d - 1 the largest
    degree cap (2g + c - 1) // n.
    """
    depth = 1 + (2 * fam.genus + second_kind_count(fam) - 1) // fam.n
    return np.array([[np.pad(np.asarray(c), (0, depth - len(c))) for c in row] for row in rows])


def max_point_error(got, want):
    worst = 0.0
    for a, b in zip(sorted_points(got), sorted_points(want)):
        scale = max(1.0, abs(b.x), abs(b.y))
        worst = max(worst, abs(a.x - b.x) / scale, abs(a.y - b.y) / scale)
    return worst


# -- divisor bookkeeping -----------------------------------------------------


def _exhausts(group, fiber):
    # does the group's y multiset hold every fiber point within 1e-6?
    left = [p.y for p in group]
    for q in fiber:
        limit = 1e-6 * max(1.0, abs(q.y))
        hit = next((i for i, y in enumerate(left) if abs(y - q.y) <= limit), None)
        if hit is None:
            return False
        left.pop(hit)
    return True


def _random_divisor_one_at_a_time(fam, rng, scale=1.0):
    # the draw loop before batching: one np.roots fiber per drawn point, then
    # the residual and full-fiber checks as they stood, grouping x around a
    # group's first member
    for _ in range(64):
        pts = []
        for _ in range(fam.genus):
            x = complex(rng.normal(scale=scale), rng.normal(scale=scale))
            fiber = sorted(np.roots(fam.y_poly(x)), key=lambda z: (z.real, z.imag))
            pts.append(CurvePoint(x, complex(fiber[int(rng.integers(len(fiber)))])))
        worst = max(
            abs(fam.eval_f(p.x, p.y))
            / (max(1.0, abs(p.x)) ** fam.s + max(1.0, abs(p.y)) ** fam.n)
            for p in pts
        )
        groups = []
        for p in sorted(pts, key=lambda q: (q.x.real, q.x.imag)):
            for group in groups:
                if abs(p.x - group[0].x) <= CLUSTER_TOL * max(1.0, abs(group[0].x)):
                    group.append(p)
                    break
            else:
                groups.append([p])
        special = any(
            len(g) >= fam.n
            and _exhausts(g, fam.lift_x_to_points(sum(p.x for p in g) / len(g)))
            for g in groups
        )
        if not special and worst <= 1e-8:
            return pts
    raise RootFindingFailure("could not sample a non-special divisor")


def residuals_at(sys, points):
    return sys.residuals([p.x for p in points], [[p.y] for p in points])


@pytest.mark.parametrize("n,s,ext", SHAPES)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=5, deadline=None)
def test_batched_draw_equals_one_at_a_time(n, s, ext, seed):
    fam = unit_family(n, s, ext, np.random.default_rng(seed))
    got = random_divisor(fam, np.random.default_rng(seed))
    want = _random_divisor_one_at_a_time(fam, np.random.default_rng(seed))
    assert list(got.points) == want


@pytest.mark.parametrize("n,s,ext", SHAPES)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=5, deadline=None)
def test_every_row_vanishes_on_its_points(n, s, ext, seed):
    rng = np.random.default_rng(seed)
    fam = unit_family(n, s, ext, rng)
    divisor = random_divisor(fam, rng)
    sys = rfunctions_from_divisor(fam, divisor, seed=seed)
    assert np.all(residuals_at(sys, divisor.points) < 1e-10)


def test_divisor_validation_rejects_off_curve():
    fam = family(2, 5)
    with pytest.raises(ValueError):
        make_divisor(fam, [CurvePoint(1.0, 1.0), CurvePoint(2.0, 5.0)])


@pytest.mark.parametrize(
    "point",
    [CurvePoint(float("nan"), 1.0), CurvePoint(float("inf"), float("inf"))],
    ids=["nan-x", "inf"],
)
def test_make_divisor_refuses_non_finite_points(point):
    # NaN was accepted with max_residual 0.0; inf overflowed in x ** s
    with pytest.raises(ValueError, match="must be finite"):
        make_divisor(family(2, 5), [point])


def test_payload_with_a_non_finite_row_refused():
    # the NaN row used to pass and make the interpolation SVD fail to converge
    fam = family(2, 5)
    good = divisor_payload(random_divisor(fam, np.random.default_rng(5)))[0]
    with pytest.raises(ValueError, match="must be finite"):
        divisor_from_payload(fam, [[np.nan, 0.0, np.nan, 0.0], good])


def test_worst_residual_keeps_a_nan():
    # Python's max(0.0, nan) is 0.0, which once reported a NaN point as on the curve
    assert np.isnan(_worst_residual(family(2, 5), [CurvePoint(np.nan, 1.0)]))


def test_worst_residual_reads_the_same_one_by_one_and_in_one_pass():
    # off the curve, so |f| is of order one and both readings agree closely
    fam = family(5, 7)
    rng = np.random.default_rng(8)
    points = [CurvePoint(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
              for _ in range(BATCH_POINTS + 3)]
    one_by_one = max(_worst_residual(fam, [p]) for p in points)
    assert abs(_worst_residual(fam, points) - one_by_one) <= 1e-13 * one_by_one
    # the pass keeps a NaN and refuses an overflow with its typed error too
    assert np.isnan(_worst_residual(fam, points + [CurvePoint(np.nan, 1.0)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (CurvePoint(1e200, 1.0), CurvePoint(0.5, 1e200)):
            with pytest.raises(CoordinateOverflow, match="overflow"):
                _worst_residual(fam, points + [bad])


def test_full_fiber_is_flagged_special():
    fam = family(3, 4)
    fiber = fam.lift_x_to_points(0.7 + 0.2j)
    divisor = make_divisor(fam, fiber)
    assert divisor.special
    with pytest.raises(SpecialDivisor):
        rfunctions_from_divisor(fam, divisor)


def test_hyperelliptic_conjugate_pair_is_special():
    fam = family(2, 5)
    p = fam.lift_x_to_points(0.4 + 0.1j)[0]
    divisor = make_divisor(fam, [p, CurvePoint(p.x, -p.y)])
    assert divisor.special


def test_points_over_one_x_within_cluster_tol_are_special():
    # x's 5e-8 apart (relative) are one x, as they would be for chi's roots,
    # so the two points exhaust the fiber; grouping within 1e-8 missed it
    fam = make_family(2, 5, {4: 0.3, 10: 0.5})
    x = 0.4 + 0.1j
    p = fam.lift_x_to_points(x)[0]
    q = fam.lift_x_to_points(x * (1 + 5e-8))[1]
    assert make_divisor(fam, [p, q]).special


def is_special_by_clusters(fam, points):
    """_is_special without its shortcut: each cluster of n or more x's, lifted."""
    full = [c for c in _clusters([p.x for p in points]) if len(c) >= fam.n]
    groups = [[points[i] for i in c] for c in full]
    fibers = fam.fiber_roots([sum(p.x for p in g) / len(g) for g in groups])
    return any(divisors._fiber_matches(g, f) for g, f in zip(groups, fibers.tolist()))


@given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
@settings(max_examples=60, deadline=None)
def test_fewer_points_than_n_agree_with_the_clustering_path(shape, seed, data):
    # part of one fiber, the rest drawn anywhere: clusters form, none is full
    n, s, ext = shape
    rng = np.random.default_rng(seed)
    fam = unit_family(n, s, ext, rng)
    count = data.draw(st.integers(0, n - 1))
    shared = data.draw(st.integers(0, count))
    fiber = fam.lift_x_to_points(complex(*rng.normal(size=2)))
    points = fiber[:shared] + divisors.sample_points(fam, rng, count - shared)
    assert divisors._is_special(fam, points) is False
    assert is_special_by_clusters(fam, points) is False
    # n points, the whole fiber, are special on both paths
    assert divisors._is_special(fam, fiber) and is_special_by_clusters(fam, fiber)


def clusters_by_loop(xs):
    """_clusters before its lone-x pass: each x compared with every cluster."""
    clusters, totals = [], []
    for i in sorted(range(len(xs)), key=lambda i: (xs[i].real, xs[i].imag)):
        for k, members in enumerate(clusters):
            center = totals[k] / len(members)
            if abs(xs[i] - center) <= CLUSTER_TOL * max(1.0, abs(center)):
                members.append(i)
                totals[k] += xs[i]
                break
        else:
            clusters.append([i])
            totals.append(xs[i])
    return clusters


FINITE_X = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@given(
    bases=st.lists(FINITE_X, min_size=1, max_size=8),
    # (base, relative offset): offsets straddle CLUSTER_TOL and the lone radius
    near=st.lists(
        st.tuples(st.integers(0, 7), st.complex_numbers(max_magnitude=2e-6)), max_size=12
    ),
)
@settings(max_examples=300, deadline=None)
def test_clusters_match_the_greedy_loop(bases, near):
    xs = bases + [
        bases[k % len(bases)] + d * max(1.0, abs(bases[k % len(bases)])) for k, d in near
    ]
    assert _clusters(xs) == clusters_by_loop(xs)
    assert _clusters(np.array(xs)) == clusters_by_loop(np.array(xs))


def test_clusters_chain_of_near_points_matches_the_loop():
    # a chain of x's CLUSTER_TOL / 2 apart drags the running mean along
    for count in (2, 3, 5, 17):
        xs = [1.3 + 0.2j + k * CLUSTER_TOL / 2 for k in range(count)] + [4.0, -1j]
        assert _clusters(xs) == clusters_by_loop(xs)


def test_repeated_point_is_not_special_but_degenerate():
    fam = family(2, 5)
    p = fam.lift_x_to_points(0.4 + 0.1j)[0]
    divisor = make_divisor(fam, [p, p])
    assert not divisor.special
    with pytest.raises(DegenerateDeterminant):
        rfunctions_from_divisor(fam, divisor)


def test_payload_round_trip():
    fam = family(3, 4)
    divisor = random_divisor(fam, np.random.default_rng(5))
    data = divisor_payload(divisor)
    assert all(len(row) == 4 for row in data)
    back = divisor_from_payload(fam, data)
    assert max_point_error(back.points, divisor.points) == 0.0


# -- forward construction ----------------------------------------------------


def test_genus_one_function_is_linear():
    fam = family(2, 3)
    p = fam.lift_x_to_points(0.3)[0]
    sys = rfunctions_from_divisor(fam, make_divisor(fam, [p]))
    rho = sys.rho[0][0]
    # x - x_P up to scale
    assert len(rho) == 2
    assert abs(rho[0] / rho[1] + p.x) < 1e-10


def test_functions_vanish_on_divisor():
    fam = family(3, 4)
    rng = np.random.default_rng(11)
    divisor = random_divisor(fam, rng)
    sys = rfunctions_from_divisor(fam, divisor)
    assert np.all(residuals_at(sys, divisor.points) < 1e-8)


def test_seed_has_no_effect():
    # the grid is read off the divisor alone
    fam = family(3, 4)
    divisor = random_divisor(fam, np.random.default_rng(3))
    a = rfunctions_from_divisor(fam, divisor, seed=7)
    b = rfunctions_from_divisor(fam, divisor, seed=8)
    assert a.rho.tobytes() == b.rho.tobytes()


@pytest.mark.parametrize("n,s", [(2, 5), (3, 4), (5, 7)])
def test_construction_is_one_svd_and_one_qr(n, s, monkeypatch):
    fam = family(n, s)
    divisor = random_divisor(fam, np.random.default_rng(9))
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(np.linalg, "svd")
    spy(np.linalg, "qr")
    spy(divisors, "sample_points")
    spy(CurveFamily, "fiber_roots")
    sys = rfunctions_from_divisor(fam, divisor)
    assert sorted(calls) == ["qr", "svd"]
    assert np.all(residuals_at(sys, divisor.points) < 1e-10)


def rfunctions_by_levels(fam, divisor):
    """rfunctions_from_divisor's grid as it was filled before the per-shape
    scatter: the monomial exponents read per call, one assignment per level."""
    g, count = fam.genus, second_kind_count(fam)
    j, i = np.array([(m.j, m.i) for m in fam.monomial_basis(g + count)]).T
    x, y = np.array([(p.x, p.y) for p in divisor.points], dtype=complex).T
    _, _, vh = np.linalg.svd(y[:, None] ** j * x[:, None] ** i)
    null = vh[g:].conj().T
    q, _ = np.linalg.qr(null[g:][::-1].conj().T)
    coeffs = null @ q[:, ::-1]
    rho = np.zeros(divisors._grid_caps(fam)[1].shape, dtype=complex)
    for l in range(count):
        rho[l, j[: g + l + 1], i[: g + l + 1]] = coeffs[: g + l + 1, l]
    return rho


@pytest.mark.parametrize("n,s,ext", SHAPES)
def test_construction_scatter_equals_the_per_level_fill(n, s, ext):
    rng = np.random.default_rng([n, s, ext, 11])
    fam = unit_family(n, s, ext, rng)
    for _ in range(3):
        divisor = random_divisor(fam, rng)
        want = rfunctions_by_levels(fam, divisor)
        assert rfunctions_from_divisor(fam, divisor).rho.tobytes() == want.tobytes()


@pytest.mark.parametrize("n,s", [(2, 5), (3, 4), (4, 5), (5, 7)])
def test_row_l_has_pole_order_exactly_2g_plus_l(n, s):
    # row l's last monomial is the (g + l)-th, of weight 2g + l, and it is live
    fam = family(n, s)
    g, count = fam.genus, second_kind_count(fam)
    sys = rfunctions_from_divisor(fam, random_divisor(fam, np.random.default_rng(4)))
    monos = fam.monomial_basis(g + count)
    for l in range(count):
        top = monos[g + l]
        assert top.sato_weight == 2 * g + l
        assert abs(sys.rho[l, top.j, top.i]) > 1e-3 * np.max(np.abs(sys.rho[l]))


def test_degree_bounds_hold():
    fam = family(4, 5)
    divisor = random_divisor(fam, np.random.default_rng(2))
    sys = rfunctions_from_divisor(fam, divisor)
    g = fam.genus
    for l, row in enumerate(sys.rho):
        for j, coeffs in enumerate(row):
            degree = np.flatnonzero(coeffs)[-1] if coeffs.any() else -1
            assert degree <= (2 * g + l - j * fam.s) // fam.n


# -- elimination -------------------------------------------------------------


def test_chi_roots_are_divisor_x():
    fam = family(3, 4)
    divisor = random_divisor(fam, np.random.default_rng(17))
    sys = rfunctions_from_divisor(fam, divisor)
    chi = chi_polynomial(sys)
    assert len(chi) == fam.genus + 1
    roots = np.roots(chi[::-1] / chi[-1])
    got = sorted(map(complex, roots), key=lambda z: (z.real, z.imag))
    want = sorted((p.x for p in divisor.points), key=lambda z: (z.real, z.imag))
    for a, b in zip(got, want):
        assert abs(a - b) < 1e-7


def test_chi_is_trivial_for_two_sheets():
    # n = 2: rho[0][1] is empty and rho[1][1] a constant, so det is rho[0][0]
    # times that constant
    fam = family(2, 5)
    divisor = random_divisor(fam, np.random.default_rng(23))
    sys = rfunctions_from_divisor(fam, divisor)
    chi, rho = chi_polynomial(sys), sys.rho[0][0]
    assert len(rho) == len(chi)
    monic_chi, monic_rho = chi / chi[-1], rho / rho[-1]
    assert np.all(np.abs(monic_chi - monic_rho) <= 1e-14 * np.max(np.abs(monic_rho)))


def poly_det_by_expansion(cells, row, cols):
    """chi's det as it was expanded before its minors were kept: every minor
    expanded again wherever it is met."""
    if len(cols) == 1:
        return cells[row][cols[0]]
    total = np.zeros(1, dtype=complex)
    for k, j in enumerate(cols):
        entry = cells[row][j]
        if len(entry) == 0:
            continue
        minor = poly_det_by_expansion(cells, row + 1, cols[:k] + cols[k + 1 :])
        if len(minor) == 0:
            continue
        term = np.convolve(entry, minor) * (-1) ** k
        if len(term) > len(total):
            term[: len(total)] += total
            total = term
        else:
            total[: len(term)] += term
    return total


@pytest.mark.parametrize("n,s", [(2, 5), (3, 4), (4, 5), (5, 6), (5, 7), (5, 9)])
def test_chi_equals_the_expansion_without_kept_minors(n, s, monkeypatch):
    fam = family(n, s)
    caps, _ = divisors._grid_caps(fam)
    for seed in range(3):
        sys = rfunctions_from_divisor(fam, random_divisor(fam, np.random.default_rng(seed)))
        cells = [[c[: cap + 1] for c, cap in zip(*rows)] for rows in zip(sys.rho, caps)]
        det = poly_det_by_expansion(cells, 0, tuple(range(len(caps))))
        want = np.zeros(fam.genus + 1, dtype=complex)
        want[: len(det)] = det
        assert chi_polynomial(sys).tobytes() == want.tobytes()
    # each minor is expanded once: at c = 4, 28 products instead of 40
    if len(caps) == 4:
        calls = []
        convolve = np.convolve
        monkeypatch.setattr(np, "convolve", lambda a, b: calls.append(1) or convolve(a, b))
        chi_polynomial(sys)
        assert len(calls) == 28


def _grid_34(rows):
    fam = family(3, 4)
    return NumericRSystem(fam, padded(fam, rows))


def test_grid_with_wrong_row_count_refused():
    with pytest.raises(MalformedGrid, match=r"shape \(1, 2, 3\), expected \(2, 2, 3\)"):
        _grid_34([[np.ones(1), np.ones(1)]])


def test_grid_with_wrong_column_count_refused():
    with pytest.raises(MalformedGrid, match=r"shape \(2, 3, 3\), expected \(2, 2, 3\)"):
        _grid_34([[np.ones(1)] * 3] * 2)


@pytest.mark.parametrize("rho", [
    [[np.ones(3), np.ones(1)], [np.ones(3), np.ones(2)]],
    [[[1, 0, 0], [1, 0, 0]], [[1, 0, 0], [1, 0]]],
    [[["1", "x", "0"]] * 2] * 2,
], ids=["ragged-arrays", "ragged-lists", "not-a-number"])
def test_grid_that_is_not_an_array_refused(rho):
    # numpy's own ValueError for a ragged list once passed through bare
    with pytest.raises(MalformedGrid, match="not a complex array"):
        NumericRSystem(family(3, 4), rho)


def test_grid_of_another_depth_refused():
    with pytest.raises(MalformedGrid, match=r"shape \(2, 2, 4\), expected \(2, 2, 3\)"):
        NumericRSystem(family(3, 4), np.zeros((2, 2, 4)))


def test_grid_entry_above_its_degree_bound_refused():
    # (3,4): rho[0][1] multiplies y, so its degree is at most (6 - 4) // 3 = 0
    with pytest.raises(MalformedGrid, match=r"rho\[0\]\[1\] has degree 1, above its bound 0"):
        _grid_34([[np.ones(3), np.ones(2)], [np.ones(3), np.ones(2)]])


def test_grid_whose_det_passes_degree_g_refused_when_built():
    # rho[1][1] of degree 2 would give det an x^4 term at g = 3
    sys = _grid_34([[np.ones(3), np.ones(1)], [np.ones(3), np.ones(2)]])
    edited = np.array(sys.rho)
    edited[1, 1, 2] = 1.0
    with pytest.raises(MalformedGrid, match=r"rho\[1\]\[1\] has degree 2, above its bound 1$"):
        NumericRSystem(sys.fam, edited)


def test_every_permutation_caps_det_at_degree_g():
    # the cap-sum bound in NumericRSystem's docstring, over every coprime
    # shape with 2 <= n <= 8 and n < s < 30: no term of det passes degree g
    for n in range(2, 9):
        for s in range(n + 1, 30):
            if gcd(n, s) != 1:
                continue
            fam = CurveFamily(n, s, {}, False, {})
            count = second_kind_count(fam)
            caps = [
                [(2 * fam.genus + l - j * s) // n for j in range(count)] for l in range(count)
            ]
            worst = max(
                sum(caps[l][j] for l, j in enumerate(sigma))
                for sigma in permutations(range(count))
                if all(caps[l][j] >= 0 for l, j in enumerate(sigma))
            )
            assert worst <= fam.genus, (n, s)


def test_grid_is_read_only_so_no_reading_goes_stale():
    # the mutable grid kept eval_grid's table from before this edit, so
    # eval_grid read 0.25 while chi_polynomial read the edit
    sys = _grid_34([[[0, 0, 1], [1]], [[0, 1], [0, 1]]])
    assert sys.eval_grid(0.5)[0, 0] == 0.25
    with pytest.raises(ValueError, match="read-only"):
        sys.rho[0][0] = [5, 0, 0]
    with pytest.raises(AttributeError):
        sys.rho = np.zeros((2, 2, 3))
    assert sys.eval_grid(0.5)[0, 0] == 0.25
    assert np.array_equal(chi_polynomial(sys), [0, -1, 0, 1])  # x^3 - x


def horner(grid, x):
    """The grid reads before one product per read: Horner over the ascending
    powers of x on grid's last axis, x's shape then (c, c)."""
    x = np.asarray(x)[..., None, None]
    out = np.zeros(x.shape[:-2] + grid.shape[:2], dtype=grid.dtype)
    for layer in np.moveaxis(grid, -1, 0)[::-1]:
        out = out * x + layer
    return out


def residuals_by_horner(sys, xs, ys):
    """NumericRSystem.residuals as it read the grid and its sizes by Horner."""
    xs, ys = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
    powers = np.arange(sys.rho.shape[1])[:, None]
    values = horner(sys.rho, xs) @ ys[:, None] ** powers
    sizes = horner(np.abs(sys.rho), np.maximum(1.0, np.abs(xs)))
    scale = sizes @ np.maximum(1.0, np.abs(ys))[:, None] ** powers
    return np.max(np.abs(values) / np.maximum(scale, 1e-300), axis=1)


def _complex_up_to(top):
    return st.builds(
        lambda r, a: r * np.exp(1j * a),
        st.floats(0.0, top), st.floats(0.0, 2 * np.pi),
    )


@given(
    shape=st.sampled_from([(2, 5), (3, 4), (4, 5), (5, 9)]),
    seed=st.integers(0, 2 ** 32 - 1),
    xs=st.lists(_complex_up_to(1e3), min_size=1, max_size=5),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_grid_reads_match_horner(shape, seed, xs, data):
    # a grid with every live cell drawn; the reads agree with Horner's within
    # 1e-12 of the size of their terms, at |x| and |y| up to 1e3
    fam = family(*shape)
    above = divisors._grid_caps(fam)[1]
    rng = np.random.default_rng(seed)
    rho = rng.normal(size=above.shape) + 1j * rng.normal(size=above.shape)
    sys = NumericRSystem(fam, np.where(above, 0, rho))
    size = horner(np.abs(sys.rho), np.maximum(1.0, np.abs(xs)))
    assert np.all(np.abs(sys.eval_grid(xs) - horner(sys.rho, xs)) <= 1e-12 * size)
    assert np.all(np.abs(sys.eval_grid(xs[0]) - horner(sys.rho, xs[0])) <= 1e-12 * size[0])
    m = data.draw(st.integers(1, fam.n))
    ys = [data.draw(st.lists(_complex_up_to(1e3), min_size=m, max_size=m)) for _ in xs]
    got, want = sys.residuals(xs, ys), residuals_by_horner(sys, xs, ys)
    assert got.shape == (len(xs), m)
    assert np.all(np.abs(got - want) <= 1e-12)


def test_grid_reads_keep_a_nan():
    sys = _grid_34([[[0, 0, 1], [1]], [[0, 1], [0, 1]]])
    nan = float("nan")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isnan(sys.eval_grid([0.5, nan])[1]).all()
        got = sys.residuals([0.5, 0.25], [[1.0, nan], [nan, 2.0]])
    assert np.isnan(got).tolist() == [[False, True], [True, False]]
    assert np.isnan(sys.residuals([nan], [[1.0]])).all()


def test_float_grid_gives_the_chi_of_its_complex_twin():
    # det adds its complex running sum into each term in place, so a float64
    # grid must reach it as complex
    rows = [[[1.0, 2.0, 1.0], [0.5]], [[0.2, -0.4, 0.2], [0.1, 1.0]]]
    floats = _grid_34(rows)
    twin = _grid_34([[np.array(c, dtype=complex) for c in row] for row in rows])
    assert floats.rho.dtype == complex
    assert np.array_equal(chi_polynomial(floats), chi_polynomial(twin))


def test_degree_collapse_refused():
    fam = family(2, 5)
    sys = NumericRSystem(fam, padded(fam, [[[0.3, 1.0], []], [[0.1, 0.2], [2.0]]]))
    with pytest.raises(DegreeCollapse):
        chi_polynomial(sys)


# -- derived systems at numeric lambda ---------------------------------------


# the (2,7) and (3,4) systems carry no lambda; (3,5) and (4,7) do
@pytest.mark.parametrize("n,s", [(2, 7), (3, 4), (3, 5), (4, 7)])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_numeric_system_commutes_with_specialisation(n, s, data):
    # the symbolic system read at numeric lambda is the system derived there
    twin = build_inversion_system(make_family(n, s, "sym"))
    small = st.tuples(
        st.integers(-4, 4).filter(bool), st.integers(1, 4)
    ).map(lambda pq: Fraction(*pq))
    fam = make_family(n, s, {k: data.draw(small) for k in twin.fam.lam})
    symbols = {
        sym
        for fn in twin.r_functions
        for coeff in fn.terms.values()
        for sym in coeff.terms
    }
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = {sym: complex(*rng.normal(size=2)) for sym in symbols}
    got = evaluate_at(compile_system(twin, fam), values)
    want = evaluate_at(compile_system(build_inversion_system(fam), fam), values)
    for got_row, want_row in zip(got.rho, want.rho):
        for a, b in zip(got_row, want_row):
            scale = max(1.0, float(np.max(np.abs(b))))
            assert np.allclose(a, b, rtol=0.0, atol=1e-12 * scale)


def evaluate_at(compiled, values):
    """A compiled system at a mapping from its symbols to their values."""
    return compiled.evaluate(np.array([values[sym] for sym in compiled.symbols]))


def per_coefficient_system(system, fam, values):
    """The grid before systems were compiled: every coefficient on its own."""
    lam = fam.numeric_lambda()
    count = second_kind_count(fam)
    rho = padded(fam, [[[0j]] * count] * count)
    for fn in system.r_functions:
        for mono, coeff in fn.terms.items():
            rho[fn.level - 1, mono.j, mono.i] += sum(
                (c.eval_numeric(lam) * complex(values[sym]) for sym, c in coeff.terms.items()),
                coeff.constant.eval_numeric(lam),
            )
    return NumericRSystem(fam, rho)


@pytest.mark.parametrize("n,s,extended", SHAPES)
def test_compiled_system_matches_per_coefficient_evaluation(n, s, extended):
    rng = np.random.default_rng([n, s, extended])
    fam = unit_family(n, s, extended, rng)
    system = build_inversion_system(fam.symbolic_twin())
    symbols = {sym for fn in system.r_functions for c in fn.terms.values() for sym in c.terms}
    values = {sym: complex(*rng.normal(size=2)) for sym in symbols}
    got = evaluate_at(compile_system(system, fam), values)
    want = per_coefficient_system(system, fam, values)
    for got_row, want_row in zip(got.rho, want.rho, strict=True):
        for a, b in zip(got_row, want_row, strict=True):
            assert a.shape == b.shape
            assert np.all(np.abs(a - b) <= 1e-14 * np.maximum(1.0, np.abs(b)))


def compile_by_rows(system, fam):
    """compile_system before its plan: the matrix filled row by row."""
    lam = fam.numeric_lambda()
    symbols = divisors._system_symbols(system)
    column = {sym: 1 + k for k, sym in enumerate(symbols)}
    matrix = np.zeros(divisors._grid_caps(fam)[1].shape + (1 + len(symbols),), dtype=complex)
    for fn in system.r_functions:
        for mono, coeff in fn.terms.items():
            row = matrix[fn.level - 1, mono.j, mono.i]
            row[0] += coeff.constant.eval_numeric(lam)
            for sym, c in coeff.terms.items():
                row[column[sym]] += c.eval_numeric(lam)
    return symbols, matrix


@pytest.mark.parametrize("n,s,extended", SHAPES)
def test_compile_plan_fills_the_matrix_row_by_row_bit_for_bit(n, s, extended):
    # the plan sums each entry's terms in the rows' order, so the bits agree
    fam = unit_family(n, s, extended, np.random.default_rng([n, s, extended, 1]))
    system = build_inversion_system(fam.symbolic_twin())
    compiled = compile_system(system, fam)
    symbols, matrix = compile_by_rows(system, fam)
    assert compiled.symbols == symbols
    assert compiled.matrix.shape == matrix.shape
    assert compiled.matrix.tobytes() == matrix.tobytes()
    assert not compiled.matrix.flags.writeable


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
def test_compiled_system_refuses_a_non_finite_value(bad):
    fam = make_family(2, 5, LAMBDAS[2, 5])
    compiled = compile_system(build_inversion_system(fam.symbolic_twin()), fam)
    values = np.full(len(compiled.symbols), 0.5 + 0j)
    sym = compiled.symbols[1]
    values[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        message = re.escape(sym.to_text()) + " = .* is not finite"
        with pytest.raises(NonFiniteValue, match=message) as info:
            compiled.evaluate(values)
    assert isinstance(info.value, NSCurveError)


@pytest.mark.parametrize("extended", [False, True])
def test_numeric_system_refuses_another_shape(extended):
    system = build_inversion_system(make_family(3, 4, extended=extended))
    with pytest.raises(ValueError, match="cannot be evaluated on"):
        compile_system(system, make_family(3, 4, {6: 0.5}, extended=not extended))
    with pytest.raises(ValueError, match="cannot be evaluated on"):
        compile_system(system, family(2, 5))


# -- backward recovery -------------------------------------------------------


def solve_divisor_by_kernel(sys):
    """The points solve_divisor gave before it read y off the lifted fiber.

    y was -rho_0(x)/rho_1(x) for n = 2 and kernel[1]/kernel[0] of the grid's
    SVD at a simple root for n >= 3; a repeated root ranked its lifted fiber
    by |grid y| and kept the best.
    """
    fam = sys.fam
    chi = chi_polynomial(sys)
    points = []
    roots = np.roots(chi[::-1] / chi[-1])
    for cluster in _clusters(roots):
        x, mu = complex(sum(roots[i] for i in cluster) / len(cluster)), len(cluster)
        grid = sys.eval_grid(x)
        if fam.n == 2:
            rho0, rho1 = grid[1]
            assert abs(rho1) > 1e-12
            points.extend([CurvePoint(x, complex(-rho0 / rho1))] * mu)
            continue
        _, sv, vh = np.linalg.svd(grid)
        assert np.sum(sv <= 1e-8 * max(sv[0], 1.0)) == mu
        if mu == 1:
            kernel = vh[-1].conj()
            assert abs(kernel[0]) > 1e-10 * np.linalg.norm(kernel)
            points.append(CurvePoint(x, complex(kernel[1] / kernel[0])))
            continue
        scored = sorted(
            ((np.linalg.norm(grid @ p.y ** np.arange(grid.shape[1])), p.y)
             for p in fam.lift_x_to_points(x)),
            key=lambda t: t[0],
        )
        assert len(scored) == mu or scored[mu][0] > 1e6 * scored[mu - 1][0]
        points.extend(CurvePoint(x, y) for _, y in scored[:mu])
    return points


@pytest.mark.parametrize("n,s", [(2, 5), (3, 4), (3, 5), (4, 5)])
def test_round_trip_random_divisors(n, s):
    fam = family(n, s)
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        divisor = random_divisor(fam, rng)
        sys = rfunctions_from_divisor(fam, divisor, seed=seed)
        recovered = solve_divisor(sys)
        assert max_point_error(recovered.points, divisor.points) < 1e-6
        assert max_point_error(recovered.points, solve_divisor_by_kernel(sys)) < 1e-6


def solve_divisor_by_np_roots(sys):
    """solve_divisor as it was before it solved chi's companion itself:
    np.roots of chi, cluster means in numpy scalars, two sorts of the ranks."""
    fam = sys.fam
    chi = chi_polynomial(sys)
    roots = np.roots(chi[::-1] / chi[-1])
    clusters = _clusters(roots.tolist())
    xs = [complex(sum(roots[i] for i in c) / len(c)) for c in clusters]
    mus = np.array([len(c) for c in clusters])
    ys = fam.fiber_roots(xs)
    residuals = sys.residuals(xs, ys)
    order = np.argsort(residuals, axis=1)
    ranked = np.full((len(xs), fam.n + mus.max()), np.inf)
    ranked[:, : fam.n] = np.sort(residuals, axis=1)
    rows = np.arange(len(xs))
    kept, rival = ranked[rows, mus - 1], ranked[rows, mus]
    k = np.argmax(kept)
    at_most(kept[k], divisors.FIBER_RESIDUAL_TOL, NullSpaceDimensionError,
            lambda: f"no fiber point fits the grid over x={xs[k]:.6g} at multiplicity {mus[k]}: "
            "relative residual")
    k = np.argmin(rival)
    above(rival[k], divisors.FIBER_RESIDUAL_TOL, NullSpaceDimensionError,
          lambda: f"fiber over x={xs[k]:.6g} is ambiguous: next candidate's relative residual")
    return [
        CurvePoint(x, fiber[i])
        for x, fiber, mu, best in zip(xs, ys.tolist(), mus, order) for i in best[:mu]
    ]


def point_bytes(points):
    return np.array([(p.x, p.y) for p in points], dtype=complex).tobytes()


@pytest.mark.parametrize("n,s,ext", SHAPES)
def test_solve_divisor_equals_the_np_roots_path(n, s, ext):
    rng = np.random.default_rng([n, s, ext, 12])
    fam = unit_family(n, s, ext, rng)
    for _ in range(3):
        sys = rfunctions_from_divisor(fam, random_divisor(fam, rng))
        assert point_bytes(solve_divisor(sys).points) == point_bytes(solve_divisor_by_np_roots(sys))


def test_solve_divisor_keeps_np_roots_zeros_of_chi():
    # chi = x^3 - x: np.roots drops the zero constant term as a root at 0
    sys = _grid_34([[[0, 0, 1], [1]], [[0, 1], [0, 1]]])
    with pytest.raises(NSCurveError) as got:
        solve_divisor(sys)
    with pytest.raises(NSCurveError) as want:
        solve_divisor_by_np_roots(sys)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    chi = chi_polynomial(sys)
    calls = []
    eigvals = np.linalg.eigvals

    def spy(a):
        calls.append(a.copy())
        return eigvals(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvals", spy)
        with pytest.raises(NSCurveError):
            solve_divisor(sys)
    # np.roots' companion of p = x^2 - 1, -0.0 included, and the dropped root 0
    assert np.array_equal(chi, [0, -1, 0, 1])
    p = (chi[::-1] / chi[-1])[:3]
    companion = np.diag(np.ones(1, dtype=complex), -1)
    companion[0, :] = -p[1:] / p[0]
    assert calls[0].tobytes() == companion.tobytes()


def test_solve_divisor_reads_chi_equal_to_x_as_a_complex_root_at_zero():
    # genus 1, the point (0, sqrt(0.4)): chi = x, whose monic companion is
    # empty; np.roots would give a float zero, and the x stays complex
    fam = make_family(2, 3, LAMBDAS[2, 3])
    y0 = math.sqrt(0.4)
    (point,) = solve_divisor(NumericRSystem(fam, [[[0, 1], [0, 0]], [[-y0, 0], [1, 0]]])).points
    assert type(point.x) is complex and point.x == 0
    assert abs(point.y - y0) < 1e-14


@given(st.lists(
    st.builds(complex, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_cluster_mean_is_numpys_bit_for_bit(xs):
    # the mean in Python complex times 1 / len is numpy's complex division
    # by len; dividing by len would differ in the last bit at len 3 and 5
    want = complex(sum(np.array(xs)[i] for i in range(len(xs))) / len(xs))
    got = sum(xs) * (1 / len(xs))
    assert np.array([got]).tobytes() == np.array([want]).tobytes()


@pytest.mark.parametrize("n,s", [(2, 5), (3, 4), (5, 9)])
def test_round_trip_is_three_eigensolves_and_no_np_roots(n, s, monkeypatch):
    # the machine-free work counter of one pass: two fiber lifts (the draw and
    # the recovery) and chi's companion; np.roots is never called
    fam = family(n, s)
    calls = []
    for owner, name in ((np.linalg, "eigvals"), (np, "roots")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: (
            calls.append(name) or real(*a)))
    divisor = random_divisor(fam, np.random.default_rng(5))
    recovered = solve_divisor(rfunctions_from_divisor(fam, divisor))
    assert calls == ["eigvals"] * 3
    assert max_point_error(recovered.points, divisor.points) < 1e-6


# (n, s, lambda, op seed) of the divisor-roundtrip ops with the least margin
# under the kernel path, seed 18's op 2 and seed 13's op 69: y came off the
# null space with relative errors 4.7e-8 and 4.1e-8
PENTAGONAL_OPS = [
    (5, 8, {
        1: -0.024506, 2: 0.708802, 4: 0.143787, 6: 0.284801, 7: 0.497119,
        9: 0.098077, 10: -0.714766, 11: 0.354665, 12: 0.423149, 14: 0.118874,
        15: -0.147319, 16: -0.842475, 17: -0.30456, 19: 0.593986, 20: -0.394075,
        22: -0.476745, 24: 0.225524, 25: 0.681305, 27: 0.308504, 30: 0.586403,
        32: -0.573725, 35: 0.48109, 40: -0.272447,
    }, 176351916865328482),
    (5, 9, {
        1: -0.723258, 2: 0.659238, 3: -0.093908, 6: -0.296555, 7: 0.490224,
        8: -0.565821, 10: 0.628545, 11: 0.713292, 12: -0.451428, 13: -0.099731,
        15: -0.488776, 16: 0.059014, 17: -0.165201, 18: -0.569174, 20: -0.530208,
        21: -0.568431, 22: -0.446243, 25: 0.621554, 26: -0.959633, 27: 0.833734,
        30: -0.778967, 31: -0.317909, 35: 0.547417, 36: -0.182777, 40: -0.123101,
        45: -0.5747,
    }, 632346051713920040),
]


@pytest.mark.parametrize("n,s,lam,op_seed", PENTAGONAL_OPS, ids=["5-8", "5-9"])
def test_pentagonal_round_trip_recovers_within_1e_9(n, s, lam, op_seed):
    # the workload's op: one generator draws the divisor, then a seed that
    # the construction ignores
    fam = make_family(n, s, lam)
    rng = np.random.default_rng(op_seed)
    divisor = random_divisor(fam, rng)
    sys = rfunctions_from_divisor(fam, divisor, seed=int(rng.integers(2 ** 62)))
    assert max_point_error(solve_divisor(sys).points, divisor.points) <= 1e-9


def test_row_scaling_leaves_solution_unchanged():
    fam = family(3, 4)
    divisor = random_divisor(fam, np.random.default_rng(31))
    sys = rfunctions_from_divisor(fam, divisor)
    rho = np.array(sys.rho)
    rho[0] *= 3.7 - 0.4j
    scaled = NumericRSystem(fam, rho)
    a = solve_divisor(sys)
    b = solve_divisor(scaled)
    assert max_point_error(a.points, b.points) < 1e-9


def _two_points_over_one_x(n, s):
    # two points over one x are legitimate as long as the fiber is not full
    fam = family(n, s)
    fiber = fam.lift_x_to_points(0.6 - 0.3j)
    rest = random_divisor(fam, np.random.default_rng(41)).points[: fam.genus - 2]
    divisor = make_divisor(fam, [fiber[0], fiber[1], *rest])
    assert not divisor.special
    return divisor, rfunctions_from_divisor(fam, divisor)


def test_repeated_x_distinct_y_round_trip():
    # (4,5): the rows reach y^2, so the fiber's other two points stay off them
    divisor, sys = _two_points_over_one_x(4, 5)
    recovered = solve_divisor(sys)
    assert max_point_error(recovered.points, divisor.points) < 1e-6


def test_repeated_x_on_trigonal_fiber_is_ambiguous():
    # (3,4): every row is a(x) + b(x) y, so both points force a = b = 0 at x
    # and the rows vanish on the whole fiber; no y can be chosen
    _, sys = _two_points_over_one_x(3, 4)
    margin = r"ambiguous: next candidate's relative residual .*, needs > 1e-07$"
    with pytest.raises(NullSpaceDimensionError, match=margin):
        solve_divisor(sys)


def test_repeated_point_on_two_sheets_is_refused():
    # P + P by hand: chi = (x - x_P)^2 and the y-row y - y_P vanishes at P
    # alone, so the fiber holds one point that fits where two are needed
    fam = family(2, 5)
    p = fam.lift_x_to_points(0.4 + 0.1j)[0]
    sys = NumericRSystem(fam, padded(fam, [[[p.x ** 2, -2 * p.x, 1.0], []], [[-p.y], [1.0]]]))
    with pytest.raises(NullSpaceDimensionError, match="no fiber point fits .* multiplicity 2"):
        solve_divisor(sys)


def test_recovered_full_fiber_is_special(monkeypatch):
    # det [[x^2, 0], [0.4 x, x]] = x^3: a triple root at 0, where every row
    # vanishes on the whole fiber, so all three points are kept
    fam = make_family(3, 4, {12: 0.7, 6: 0.3})
    sys = NumericRSystem(fam, padded(fam, [[[0.0, 0.0, 1.0], []], [[0.0, 0.4], [0.0, 1.0]]]))
    fiber = fam.lift_x_to_points(0j)
    calls = []

    def spy(name):
        real = getattr(CurveFamily, name)

        def counted(self, *args):
            calls.append(name)
            return real(self, *args)

        monkeypatch.setattr(CurveFamily, name, counted)

    spy("eval_f")
    spy("fiber_roots")
    divisor = solve_divisor(sys)
    assert divisor.special
    assert sorted_points(divisor.points) == sorted_points(fiber)
    # specialness is read off the multiplicities, not re-derived from the points
    assert calls == ["fiber_roots"]


def test_null_space_dimension_guard():
    # chi = (x - 1)^2 x but the kernel over the double root is one-dimensional
    sys = _grid_34([[[1.0, -2.0, 1.0], [0.5]], [[0.2, -0.4, 0.2], [0.1, 1.0]]])
    with pytest.raises(NullSpaceDimensionError):
        solve_divisor(sys)


def test_non_finite_grid_refused():
    fam = family(2, 5)
    sys = NumericRSystem(fam, padded(fam, [[[np.nan, 0.0, 1.0], []], [[0.1], [2.0]]]))
    with pytest.raises(RootFindingFailure):
        solve_divisor(sys)
    # chi_polynomial refuses the grid itself, before its degree gates
    with pytest.raises(RootFindingFailure, match="non-finite"):
        chi_polynomial(sys)
