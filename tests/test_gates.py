"""The numeric gate contract: a NaN never passes a gate, and a refusal says why.

Every numeric threshold in the numeric layer goes through ``errors.at_most``
or ``errors.above``.  Each case below drives a NaN into one gate, through
its public entry point where a NaN can reach it that way, else through the
private function that holds the gate, or by making the numpy call in front
of the gate return a NaN.  The gate must raise its own typed error, with no
numpy warning on the way.
"""
import re
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

import nscurves.theta as theta
from nscurves import curves, divisors, hyperell
from nscurves.curves import CurvePoint, make_family
from nscurves.divisors import Divisor, NumericRSystem
from nscurves.errors import (
    BranchCollision,
    ComplexBranchPoints,
    CoordinateOverflow,
    DegenerateDeterminant,
    DegreeCollapse,
    NSCurveError,
    NonSymmetricTau,
    NullSpaceDimensionError,
    OnThetaDivisor,
    QuadratureNotConverged,
    RootFindingFailure,
    SheetLoss,
    above,
    at_most,
)

NAN = float("nan")
NAN_TAU = np.full((2, 2), complex(NAN, NAN))
GENUS2 = hyperell.hyperelliptic_from_branch_points([-1.5, -0.7, 0.1, 0.9, 1.2])
PERIODS = hyperell.compute_periods(GENUS2)
QUINTIC = make_family(2, 5, {4: -1.0, 6: 0.5, 8: 0.25, 10: -0.75})
TRIGONAL = make_family(3, 4, {2: 0.3, 5: 0.4, 6: 0.5, 8: 0.6, 9: 0.7, 12: 0.2})


# a Divisor built by hand, past make_divisor's finite check
NAN_DIVISOR = Divisor((CurvePoint(NAN, 1.0), CurvePoint(0.3, 0.1)), False)


def _nan_roots(monkeypatch):
    monkeypatch.setattr(np, "roots", lambda p: np.array([NAN, -1.0, 1.0]))
    return hyperell.branch_points(GENUS2)


def _complex_branch_points(monkeypatch):
    es = PERIODS.branch_points + np.array([0, 0, NAN * 1j, 0, 0])
    monkeypatch.setattr(hyperell, "_sorted_roots", lambda p: es)
    return hyperell.compute_periods(GENUS2)


def _nan_sheet(monkeypatch):
    # abel_map refuses a non-finite point itself, so the leg's y is the NaN
    monkeypatch.setattr(
        hyperell, "_leg", lambda *args: (np.zeros((1, 2)), np.array([complex(NAN)]))
    )
    return hyperell.abel_map(GENUS2, PERIODS, CurvePoint(0.3 + 0.2j, 1.0))


def _nan_eigvals(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.full(a.shape[:-1], NAN + 0j))
    return QUINTIC.fiber_roots([0.5])


def _nan_discriminant(monkeypatch):
    monkeypatch.setattr(curves, "_sylvester_dets", lambda fam, xs: np.full(len(xs), complex(NAN)))
    return curves.discriminant_roots(QUINTIC)


def _nan_spacing(monkeypatch):
    monkeypatch.setattr(curves, "discriminant_roots", lambda fam: np.array([0.0, NAN, 1.0]))
    return curves.check_nondegenerate(QUINTIC)


def _nan_singular_value(monkeypatch):
    divisor = divisors.random_divisor(QUINTIC, np.random.default_rng(3))
    svd = np.linalg.svd

    def poisoned(a):
        u, sv, vh = svd(a)
        return u, sv * NAN, vh

    monkeypatch.setattr(np.linalg, "svd", poisoned)
    return divisors.rfunctions_from_divisor(QUINTIC, divisor)


def _quintic_system():
    divisor = divisors.random_divisor(QUINTIC, np.random.default_rng(3))
    return divisor, divisors.rfunctions_from_divisor(QUINTIC, divisor)


def _nan_grid(monkeypatch):
    # every candidate's residual is NaN, so the kept point's gate sees it
    _, sys = _quintic_system()
    monkeypatch.setattr(
        NumericRSystem, "eval_grid",
        lambda self, x: np.full(np.shape(x) + (2, 2), complex(NAN, NAN)),
    )
    return divisors.solve_divisor(sys)


def _nan_rival(monkeypatch):
    # each fiber holds the divisor's own y and a NaN y, which the
    # ambiguity gate reads as the next candidate
    divisor, sys = _quintic_system()

    def roots(self, xs):
        return np.array([
            [min(divisor.points, key=lambda p: abs(p.x - x)).y, NAN] for x in xs
        ])

    monkeypatch.setattr(curves.CurveFamily, "fiber_roots", roots)
    return divisors.solve_divisor(sys)


# (id, call, error, gated by a helper); a call takes the monkeypatch fixture
CASES = [
    # hyperell
    ("branch-collision", _nan_roots, BranchCollision, True),
    ("branch-point-builder",
     lambda mp: hyperell.hyperelliptic_from_branch_points([NAN, -1.0, 1.0]), ValueError, False),
    ("quadrature",
     lambda mp: hyperell._leg(PERIODS.branch_points.real, np.full((1, 1), complex(NAN)),
                              np.array([2]), [0.3 + 0.2j]),
     QuadratureNotConverged, True),
    ("abel-map-x", lambda mp: hyperell.abel_map(GENUS2, PERIODS, CurvePoint(NAN, 1.0)),
     ValueError, False),
    ("abel-map-y", lambda mp: hyperell.abel_map(GENUS2, PERIODS, CurvePoint(0.3, float("inf"))),
     ValueError, False),
    ("real-axis", _complex_branch_points, ComplexBranchPoints, True),
    ("characteristic",
     lambda mp: hyperell._check_riemann_characteristic(
         PERIODS.theta, PERIODS.omega_inv, np.array([NAN, 0.0])),
     OnThetaDivisor, True),
    ("theta-context", lambda mp: hyperell.theta_context(NAN_TAU), NonSymmetricTau, True),
    ("wp", lambda mp: hyperell.wp_from_theta(np.array([NAN, 0]), PERIODS), OnThetaDivisor, True),
    ("sheet", _nan_sheet, SheetLoss, True),
    # divisors
    ("make-divisor", lambda mp: divisors.make_divisor(QUINTIC, [CurvePoint(NAN, 1.0)]),
     ValueError, False),
    ("rfunctions-divisor",
     lambda mp: divisors.rfunctions_from_divisor(QUINTIC, NAN_DIVISOR), ValueError, False),
    ("verify-divisor",
     lambda mp: hyperell.verify_inversion(GENUS2, NAN_DIVISOR, PERIODS), ValueError, False),
    ("interpolation", _nan_singular_value, DegenerateDeterminant, True),
    ("chi",
     lambda mp: divisors.chi_polynomial(NumericRSystem(
         QUINTIC, [[[NAN, 0.0, 1.0], [0.0, 0.0, 0.0]], [[0.1, 0.0, 0.0], [2.0, 0.0, 0.0]]])),
     RootFindingFailure, False),
    ("fiber-fit", _nan_grid, NullSpaceDimensionError, True),
    ("fiber-ambiguous", _nan_rival, NullSpaceDimensionError, True),
    # curves
    ("fiber-x", lambda mp: QUINTIC.lift_x_to_points(NAN), ValueError, False),
    ("fiber-x-infinite", lambda mp: QUINTIC.fiber_roots([0.5, float("inf")]), ValueError, False),
    ("fiber-residual", _nan_eigvals, RootFindingFailure, True),
    ("check-nondegenerate", _nan_spacing, BranchCollision, True),
    ("discriminant", _nan_discriminant, BranchCollision, True),
]
HELPER_CASES = [case for case in CASES if case[3]]


def _refusal(monkeypatch, call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call(monkeypatch)
    return str(info.value)


@pytest.mark.parametrize(
    "call, error", [case[1:3] for case in CASES], ids=[case[0] for case in CASES]
)
def test_nan_fails_its_gate_with_its_typed_error(monkeypatch, call, error):
    _refusal(monkeypatch, call, error)


@pytest.mark.parametrize(
    "call, error", [case[1:3] for case in HELPER_CASES], ids=[case[0] for case in HELPER_CASES]
)
def test_each_gate_message_carries_its_value_and_its_limit(monkeypatch, call, error):
    message = _refusal(monkeypatch, call, error)
    number = r"(nan|inf|-?[0-9.]+(e[+-][0-9]+)?)"
    assert re.search(rf" {number}, (tolerance|needs >) {number}$", message), message
    assert " nan, " in message


# finite coordinates whose powers overflow: Python numbers raise, numpy
# scalars and arrays overflow to inf, the residual limit squares the row
OVERFLOWS = [
    ("divisor-x", lambda: divisors.make_divisor(
        QUINTIC, [CurvePoint(1e200, 1.0), CurvePoint(0.3, 0.1)])),
    ("divisor-y", lambda: divisors.make_divisor(
        QUINTIC, [CurvePoint(0.5, 1e200), CurvePoint(0.3, 0.1)])),
    ("lift-float", lambda: QUINTIC.lift_x_to_points(1e100)),
    ("lift-complex", lambda: QUINTIC.lift_x_to_points(complex(1e100, 1e100))),
    ("lift-numpy-scalar", lambda: QUINTIC.lift_x_to_points(np.complex128(1e100))),
    ("lift-residual-limit", lambda: QUINTIC.lift_x_to_points(1e40)),
    ("lift-trigonal", lambda: TRIGONAL.fiber_roots([0.5, 1e80])),
    ("eval-f", lambda: QUINTIC.eval_f(1e100, 1.0)),
]


@pytest.mark.parametrize("call", [c[1] for c in OVERFLOWS], ids=[c[0] for c in OVERFLOWS])
def test_overflowing_coordinates_raise_a_typed_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CoordinateOverflow, match="overflow"):
            call()
    assert issubclass(CoordinateOverflow, NSCurveError)


def test_large_finite_coordinates_still_lift():
    # below the overflow the fiber is lifted as before
    for x in (1e30, -1e30j):
        fiber = QUINTIC.lift_x_to_points(x)
        assert len(fiber) == 2
        assert all(np.isfinite(p.y) for p in fiber)


def test_helpers_pass_only_inside_their_limit():
    at_most(1.0, 1.0, DegreeCollapse, "value")
    above(1.0 + 1e-16 * 4, 1.0, DegreeCollapse, "value")
    for bad in (1.5, NAN):
        with pytest.raises(DegreeCollapse):
            at_most(bad, 1.0, DegreeCollapse, "value")
    for bad in (1.0, 0.5, NAN):
        with pytest.raises(DegreeCollapse):
            above(bad, 1.0, DegreeCollapse, "value")
    # a NaN limit fails too
    with pytest.raises(DegreeCollapse):
        at_most(0.0, NAN, DegreeCollapse, "value")
    with pytest.raises(DegreeCollapse):
        above(1.0, NAN, DegreeCollapse, "value")


def test_helper_messages_read_value_then_limit():
    with pytest.raises(QuadratureNotConverged) as info:
        at_most(2.5e-3, 1e-10, QuadratureNotConverged, "a sum moved")
    assert str(info.value) == "a sum moved 2.500e-03, tolerance 1e-10"
    with pytest.raises(DegreeCollapse) as info:
        above(1e-12, 3e-10, DegreeCollapse, "leading coefficient")
    assert str(info.value) == "leading coefficient 1.000e-12, needs > 3e-10"
    assert isinstance(info.value, NSCurveError)


def test_a_callable_message_is_formatted_once_and_only_on_failure():
    lead = mock.Mock(return_value="a sum moved")
    at_most(1.0, 1.0, QuadratureNotConverged, lead)
    above(2.0, 1.0, QuadratureNotConverged, lead)
    assert lead.call_count == 0
    with pytest.raises(QuadratureNotConverged) as info:
        at_most(NAN, 1e-10, QuadratureNotConverged, lead)
    assert str(info.value) == "a sum moved nan, tolerance 1e-10"
    with pytest.raises(QuadratureNotConverged) as info:
        above(0.5, 1.0, QuadratureNotConverged, lead)
    assert str(info.value) == "a sum moved 5.000e-01, needs > 1"
    assert lead.call_count == 2


# the functions whose gates take a callable message
LAZY_GATES = {
    "_sorted_roots", "_leg", "_check_riemann_characteristic",
    "theta_context", "_abel_images", "fiber_roots", "solve_divisor",
}


def test_passing_gates_go_through_the_helpers_and_format_nothing(monkeypatch):
    # every gate of a hyper-loop op and of a round trip still calls at_most or
    # above, each that formats its message passes it as a callable, and no
    # passing gate calls it
    lazy, formatted = set(), []

    def spy(gate):
        def wrapped(value, limit, error, what):
            site = sys._getframe(1).f_code.co_name
            lead = what
            if callable(lead):
                lazy.add(site)

                def what():
                    formatted.append(site)
                    return lead()
            return gate(value, limit, error, what)
        return wrapped

    for module in (curves, divisors, hyperell, theta):
        for gate in (at_most, above):
            monkeypatch.setattr(module, gate.__name__, spy(gate))
    per = hyperell.compute_periods(GENUS2)
    rng = np.random.default_rng(2)
    points = [GENUS2.lift_x_to_points(complex(*rng.normal(size=2)))[0] for _ in range(2)]
    hyperell.verify_inversion(GENUS2, divisors.make_divisor(GENUS2, points), per)
    divisor = divisors.random_divisor(TRIGONAL, rng)
    divisors.solve_divisor(divisors.rfunctions_from_divisor(TRIGONAL, divisor))
    assert LAZY_GATES <= lazy
    assert formatted == []


@pytest.mark.parametrize(
    "tau, radius",
    [(0.003j, r"7\.600e\+01"), (1e-320j, "inf")],
    ids=["radius-76", "radius-overflows"],
)
def test_theta_radius_past_the_cube_is_refused(tau, radius):
    # the tail bound's radius is refused above 64, with no numpy warning or
    # OverflowError on the way, however small Im tau is
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonSymmetricTau, match=f"cube radius {radius}, tolerance 64$"):
            hyperell.theta_context(np.array([[tau]]))


def test_theta_on_a_thin_lattice_meets_its_tail_bound():
    # Jacobi: theta(0 | i t) = t^-1/2 theta(0 | i/t), and theta(0 | 100 i)
    # is 1 within 1e-136, so theta(0 | 0.01 i) = 10
    ctx = hyperell.theta_context(np.array([[0.01j]]))
    assert ctx.radius < 64
    (val,), scale = hyperell.theta_with_derivs(np.zeros(1), ctx)
    assert abs(val - 10.0) <= theta.THETA_TAIL * scale
