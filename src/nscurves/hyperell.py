"""Numeric closure on two-sheeted curves: periods, theta, wp, Abel map.

Everything here works on (2, 2g+1) families with numeric coefficients and
genus 1 to MAX_GENUS.  Periods of du and of Baker's closed-form dr come
from contour quadrature around branch points.  Sigma is realized through
theta[delta], delta the characteristic of the Riemann constants, a constant
of the fixed homology basis, written in closed form and checked by one
theta value per curve.  Sigma is so known up to a gauge factor
exp(quadratic) that the wp functions do not see.  The Abel map combines the
series tail at infinity with sheet-tracked continuation.  The closing check
reads the inversion system that the exact layer derives for the shape, with
lambda symbolic, at the wp values of A(D); the du numerators come from that
system too.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .abelian import InversionSystem, build_inversion_system
from .curves import CurveFamily, CurvePoint, make_family
from .divisors import Divisor, _poly_at, numeric_system
from .errors import (
    BranchCollision,
    ComplexBranchPoints,
    NonSymmetricTau,
    NotTwoSheeted,
    OnThetaDivisor,
    PathThroughBranchPoint,
    SheetLoss,
    SpecialDivisor,
    UnsupportedGenus,
)

# kappa = KAPPA_SIGN * sym(eta omega^-1); the sign is a convention constant
# tied to the orientation of Baker's dr rows, fixed once against the genus-1
# uniformization and validated independently on genus 2 and genus 3
KAPPA_SIGN = -1.0

# theta sums a (2R+1)^g cube: one genus-4 check takes about 2 s, 60x genus 3
MAX_GENUS = 3

THETA_TAIL = 1e-13

# numeric gates: largest relative y step between adjacent nodes, relative
# closure residual of a contour, relative distance of a landing from a sheet,
# largest |theta[delta]|/scale where theta[delta] must vanish
MAX_SHEET_STEP = 0.75
CLOSURE_TOL = 1e-6
LANDING_TOL = 1e-4
CHARACTERISTIC_TOL = 1e-6
# tau gate: relative symmetry defect, least eigenvalue of sym(Im tau)
TAU_SYMMETRY_TOL = 1e-8
TAU_EIGENVALUE_TOL = 1e-12


def _require_y_squared(fam: CurveFamily) -> None:
    """Raise NotTwoSheeted unless the curve reads y^2 = p(x)."""
    if fam.n != 2:
        raise NotTwoSheeted(f"y^2 = p(x) needs n = 2, not n = {fam.n}")
    on_y = [k for k, j, _, _ in fam.lambda_terms() if j]
    if on_y:
        raise NotTwoSheeted(
            f"y^2 = p(x) has no y term, but lambda_{on_y[0]} multiplies y"
        )


def _require_two_sheets(fam: CurveFamily) -> None:
    _require_y_squared(fam)
    if fam.genus > MAX_GENUS:
        raise UnsupportedGenus(f"genus {fam.genus} is above {MAX_GENUS}")


def curve_polynomial(fam: CurveFamily) -> np.ndarray:
    """y^2 = p(x): ascending coefficients of p, degree 2g+1."""
    _require_y_squared(fam)
    lam = fam.numeric_lambda()
    p = np.zeros(fam.s + 1, dtype=complex)
    p[fam.s] = 1.0
    for k, _, i, _ in fam.lambda_terms():
        p[i] += lam[k]
    return p


def branch_points(fam: CurveFamily) -> np.ndarray:
    p = curve_polynomial(fam)
    roots = np.roots(p[::-1])
    scale = max(1.0, float(np.max(np.abs(roots))))
    # root extraction smears a true double root over ~sqrt(eps), so the
    # collision threshold sits well above that smear
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            if abs(roots[a] - roots[b]) < 1e-6 * scale:
                raise BranchCollision(
                    f"branch points {roots[a]:.6g} and {roots[b]:.6g} collide"
                )
    return np.array(sorted(roots, key=lambda z: (z.real, z.imag)))


def hyperelliptic_from_branch_points(es: Sequence[complex]) -> CurveFamily:
    """The (2, 2g+1) family whose finite branch points are the given es."""
    es = [complex(e) for e in es]
    if len(es) % 2 != 1:
        raise ValueError("need an odd number of finite branch points")
    s = len(es)
    mean = sum(es) / s
    if abs(mean) > 1e-12 * max(1.0, max(abs(e) for e in es)):
        raise ValueError(
            "branch points must sum to zero; shift them by the mean first"
        )
    coeffs = np.poly(es)  # descending, monic
    size = max(1.0, float(np.max(np.abs(coeffs))))
    lam = {}
    for i in range(s - 1):
        c = complex(coeffs[s - i])
        if abs(c) > 1e-13 * size:
            value = c.real if abs(c.imag) < 1e-13 * size else c
            lam[2 * s - 2 * i] = value
    return make_family(2, s, lam)


# -- sheet-tracked quadrature ------------------------------------------------


@functools.lru_cache(maxsize=16)
def _gl_nodes(panels: int, nodes: int, a: float, b: float):
    """Composite Gauss-Legendre rule on [a, b]; cached, so read-only."""
    base, weights = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = ((edges[1:] - edges[:-1]) / 2)[:, None]
    ts = (half * base + ((edges[:-1] + edges[1:]) / 2)[:, None]).ravel()
    ws = (half * weights).ravel()
    ts.flags.writeable = ws.flags.writeable = False
    return ts, ws


def _track_sheet(p: np.ndarray, xs: np.ndarray, y_start: complex | None):
    """sqrt(p) along xs, each value on the sheet nearer the one before.

    The first value is compared with y_start (None: the principal root).  A
    root r whose predecessor q is on the same sheet flips when |r + q| <
    |r - q|; one on the other sheet keeps r unless |r - q| < |r + q|.  So
    the sign is a running parity of flips, and a tie |r + q| = |r - q|
    restarts it at the principal root.  np.hypot rounds as abs() of one
    complex does (np.abs over a complex array need not), so every
    comparison is bit for bit that of a node-by-node walk.
    """
    roots = np.sqrt(np.polyval(p[::-1], xs))
    prev = np.concatenate(([0j if y_start is None else y_start], roots[:-1]))
    plus, minus = roots + prev, roots - prev
    near = np.hypot(plus.real, plus.imag)
    far = np.hypot(minus.real, minus.imag)
    flips = np.cumsum(near < far)
    restart = np.maximum.accumulate(
        np.where(near == far, np.arange(len(roots)), -1)
    )
    since_restart = flips - np.where(restart >= 0, flips[restart], 0)
    return np.where(since_restart % 2 == 1, -roots, roots)


def _integrate_along(
    p: np.ndarray,
    numerators: list[np.ndarray],
    xs: np.ndarray,
    dxs: np.ndarray,
    ws: np.ndarray,
    y_start: complex | None,
):
    ys = _track_sheet(p, xs, y_start)
    steps = np.abs(np.diff(ys)) / np.maximum(np.abs(ys[:-1]), 1e-12)
    worst = float(np.max(steps, initial=0.0))
    if worst > MAX_SHEET_STEP:
        raise SheetLoss(
            f"y jumped between adjacent quadrature nodes "
            f"(worst relative step {worst:.3g} > {MAX_SHEET_STEP})"
        )
    out = np.array(
        [
            np.sum(ws * np.polyval(num[::-1], xs) * dxs / (-2.0 * ys))
            for num in numerators
        ]
    )
    return out, ys


def _ellipse_integral(
    p: np.ndarray,
    numerators: list[np.ndarray],
    lo: complex,
    hi: complex,
    spacing: float,
    panels: int,
    nodes: int,
) -> np.ndarray:
    """Integrals around an ellipse that encloses the real segment [lo, hi]."""
    center = (lo + hi) / 2
    ax = abs(hi - lo) / 2 + 0.45 * spacing
    ay = max(0.4 * spacing, 0.5 * ax)
    ts, ws = _gl_nodes(panels, nodes, 0.0, 2.0 * math.pi)
    xs = center + ax * np.cos(ts) + 1j * ay * np.sin(ts)
    dxs = -ax * np.sin(ts) + 1j * ay * np.cos(ts)
    vals, ys = _integrate_along(p, numerators, xs, dxs, ws, None)
    closing = _track_sheet(p, np.array([xs[0]]), ys[-1])[0]
    scale = max(1.0, abs(ys[0]))
    if abs(closing - ys[0]) > CLOSURE_TOL * scale:
        raise SheetLoss(
            f"contour did not return to its starting sheet (closure "
            f"residual {abs(closing - ys[0]) / scale:.3e} > {CLOSURE_TOL:g})"
        )
    return vals


@functools.lru_cache(maxsize=8)
def _derived_system(n: int, s: int, extended: bool) -> InversionSystem:
    """The shape's exact inversion system, lambda symbolic; cached, so read-only."""
    return build_inversion_system(make_family(n, s, "sym", extended=extended))


def _du_numerators(fam: CurveFamily) -> list[np.ndarray]:
    # the exact layer's du numerators, one x^i per gap in ascending gap order
    monos = _derived_system(fam.n, fam.s, fam.extended).first.numerators
    return [np.eye(1, mono.i + 1, mono.i, dtype=complex)[0] for mono in monos]


def _dr_numerators(p: np.ndarray) -> list[np.ndarray]:
    # Baker's closed form (Baker 1897; Buchstaber, Enolski and Leykin 1997),
    # p ascending and monic: row k, dual to du_(2k-1) = x^(g-k) dx/(-2y),
    # holds sum_{m=j}^{2g-j} (m+1-j) p_(m+1+j) x^m with j = g+1-k
    g = len(p) // 2 - 1
    rows = []
    for j in range(g, 0, -1):
        num = np.zeros_like(p, shape=2 * g + 1 - j)
        num[j:] = [(m + 1 - j) * p[m + 1 + j] for m in range(j, 2 * g + 1 - j)]
        rows.append(num)
    return rows


# -- periods -----------------------------------------------------------------


@dataclass
class PeriodData:
    fam: CurveFamily
    branch_points: np.ndarray
    spacing: float  # least distance between two branch points
    omega: np.ndarray
    omega_prime: np.ndarray
    eta: np.ndarray
    tau: np.ndarray
    kappa: np.ndarray
    # theta[delta] at tau, delta the characteristic of the Riemann constants
    theta: ThetaContext
    legendre_defect: float
    # u at the end of the series leg from infinity, and the point it ends at
    infinity_leg: tuple[np.ndarray, CurvePoint]


def _check_riemann_matrix(tau: np.ndarray) -> None:
    """Raise NonSymmetricTau unless tau is symmetric with Im tau > 0.

    Both margins are written so that a non-finite tau fails them.
    """
    size = max(1.0, float(np.linalg.norm(tau)))
    defect = float(np.linalg.norm(tau - tau.T)) / size
    lam_min = float(np.min(np.linalg.eigvalsh((tau.imag + tau.imag.T) / 2)))
    if not (defect <= TAU_SYMMETRY_TOL and lam_min > TAU_EIGENVALUE_TOL):
        raise NonSymmetricTau(
            f"tau is not a Riemann matrix (symmetry defect {defect:.3e}, "
            f"tolerance {TAU_SYMMETRY_TOL:g}; least eigenvalue of sym(Im tau) "
            f"{lam_min:.3e}, needs > {TAU_EIGENVALUE_TOL:g})"
        )


def _orient_b_cycles(
    omega: np.ndarray, omega_prime: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """tau and omega' after the one b-cycle flip that can pass the gate.

    Flipping a-cycles by D_a and b-cycles by D_b turns omega^-1 omega' into
    D_a tau_r D_b.  If that passes the gate, so does its conjugate
    tau_r D_b D_a, so the a-cycles never need a flip; and the diagonal of
    Im(tau_r D_b) is d_k Im(tau_r)_kk, so d_k = sign Im(tau_r)_kk.
    """
    flips = np.sign(np.linalg.solve(omega, omega_prime).diagonal().imag)
    omega_prime = omega_prime * flips
    # solved again rather than flipping tau_r's columns, so tau has the bits
    # of omega^-1 omega' for the flipped omega'
    tau = np.linalg.solve(omega, omega_prime)
    _check_riemann_matrix(tau)
    return tau, omega_prime


def compute_periods(
    fam: CurveFamily, panels: int = 32, nodes: int = 16
) -> PeriodData:
    """Period matrices over contours around branch pairs, plus sigma data.

    a_k encircles the pair (e_{2k-1}, e_{2k}); b_k encircles the tail set
    e_{2k}..e_{2g+1}.  Contour orientations leave a sign per cycle
    undetermined.  The a-cycles keep theirs, and each b-cycle's sign is read
    off the diagonal of Im tau, the one choice that can make tau symmetric
    with positive-definite imaginary part (see _orient_b_cycles).  The sign
    flips cannot move a half-integer characteristic mod 1, so the
    characteristic of the Riemann constants is that of the basis, written
    down by _riemann_characteristic; one theta value confirms it (see
    _check_riemann_characteristic).
    """
    _require_two_sheets(fam)
    g = fam.genus
    es = branch_points(fam)
    scale = float(np.max(np.abs(es))) + 1.0
    if float(np.max(np.abs(es.imag))) > 1e-9 * scale:
        raise ComplexBranchPoints(
            "pair/tail contours need real branch points; "
            "this curve has complex ones"
        )
    p = curve_polynomial(fam)
    du = _du_numerators(fam)
    dr = _dr_numerators(p)
    omega, omega_prime, eta = np.zeros((3, g, g), dtype=complex)
    # scalar abs(): np.abs may round differently
    spacing = min(abs(a - b) for i, a in enumerate(es) for b in es[i + 1 :])
    for k in range(g):
        vals = _ellipse_integral(
            p, du + dr, es[2 * k], es[2 * k + 1], spacing, panels, nodes
        )
        omega[:, k] = vals[:g]
        eta[:, k] = vals[g:]
        omega_prime[:, k] = _ellipse_integral(
            p, du, es[2 * k + 1], es[2 * g], spacing, panels, nodes
        )
    tau, omega_prime = _orient_b_cycles(omega, omega_prime)
    raw = eta @ np.linalg.inv(omega)
    defect = float(np.linalg.norm(raw - raw.T))
    kappa = KAPPA_SIGN * (raw + raw.T) / 2
    ctx = theta_context(tau, _riemann_characteristic(g))
    leg = _series_leg(fam, p, es)
    _check_riemann_characteristic(ctx, omega, leg[0])
    return PeriodData(
        fam, es, spacing, omega, omega_prime, eta, tau, kappa, ctx, defect, leg
    )


def _riemann_characteristic(g: int) -> tuple[np.ndarray, np.ndarray]:
    """delta' = (1/2, ..., 1/2), delta''_k = (g - k + 1)/2 mod 1.

    The half characteristic of the vector of Riemann constants for the
    a/b basis of compute_periods (Buchstaber, Enolski and Leykin 1997):
    genus 1 gives the odd [1/2; 1/2], genus 2 gives [1/2 1/2; 0 1/2].
    """
    return np.full(g, 0.5), np.arange(g, 0, -1) / 2.0 % 1.0


def _check_riemann_characteristic(
    ctx: ThetaContext, omega: np.ndarray, u_leg: np.ndarray
) -> None:
    """Raise OnThetaDivisor unless theta[delta] vanishes at (g - 1) u_leg.

    theta[delta] vanishes on A(W_{g-1}).  u_leg is A(P) for the point P that
    ends the series leg, so (g - 1) u_leg = A((g - 1) P) lies in A(W_{g-1})
    for every g (at g = 1 it is 0, and W_0 = {0}).  On the 210 curves of the
    hyper-loop pools of seeds 1-10, delta reads at most 5e-16 there and each
    of the other 4^g - 1 at least 0.09 (0.006 on 20 genus-3 curves).
    """
    g = len(u_leg)
    z = _reduce_modulo_lattice(np.linalg.solve(omega, (g - 1) * u_leg), ctx.tau)
    (val,), scale = theta_with_derivs(z, ctx, order=0)
    if abs(val) > CHARACTERISTIC_TOL * scale:
        raise OnThetaDivisor(
            f"theta[delta] does not vanish on A(W_{g - 1}) "
            f"(|theta|/scale {abs(val) / scale:.3e} > {CHARACTERISTIC_TOL:g})"
        )


# -- theta -------------------------------------------------------------------


@dataclass
class ThetaContext:
    tau: np.ndarray
    characteristic: tuple[np.ndarray, np.ndarray]
    radius: int


def theta_context(
    tau: np.ndarray,
    characteristic: tuple[np.ndarray, np.ndarray] | None = None,
    z_bound: float = 2.0,
) -> ThetaContext:
    """Cutoff radius from the Gaussian tail so omitted terms stay < 1e-12."""
    tau = np.asarray(tau, dtype=complex)
    g = tau.shape[0]
    if characteristic is None:
        characteristic = (np.zeros(g), np.zeros(g))
    lam_min = float(np.min(np.linalg.eigvalsh(tau.imag)))
    if not lam_min > 0:
        raise NonSymmetricTau(
            f"Im tau is not positive definite (least eigenvalue {lam_min:.3e})"
        )
    radius = 2
    while radius < 64:
        reach = radius - 0.5 - math.sqrt(g)
        shell = (2 * radius + 3) ** g
        bound = shell * math.exp(
            -math.pi * lam_min * max(reach, 0.0) ** 2
            + 2.0 * math.pi * (radius + 1) * z_bound
        )
        if reach > 0 and bound < THETA_TAIL:
            break
        radius += 1
    return ThetaContext(tau, characteristic, radius)


@functools.lru_cache(maxsize=16)
def _lattice(g: int, radius: int) -> np.ndarray:
    """Integer points of the cube [-radius, radius]^g; cached, so read-only."""
    axes = [np.arange(-radius, radius + 1)] * g
    grid = np.meshgrid(*axes, indexing="ij")
    out = np.stack([a.ravel() for a in grid], axis=1)
    out.flags.writeable = False
    return out


def theta_with_derivs(z: np.ndarray, ctx: ThetaContext, order: int = 0):
    """Truncated lattice sum and its first derivative tensors in z.

    theta[d](z) = sum exp(i pi m'^T tau m' + 2 pi i m'^T (z + d'')) with
    m' = m + d'; derivatives differentiate term by term, which keeps every
    order as accurate as the sum itself.
    """
    z = np.asarray(z, dtype=complex)
    g = len(z)
    d1, d2 = ctx.characteristic
    m = _lattice(g, ctx.radius) + d1[None, :]
    phases = np.exp(
        1j * math.pi * np.einsum("ki,ij,kj->k", m, ctx.tau, m)
        + 2j * math.pi * (m @ (z + d2))
    )
    value = complex(np.sum(phases))
    out = [value]
    if order >= 1:
        factor = 2j * math.pi * m
        out.append(np.einsum("k,ki->i", phases, factor))
    if order >= 2:
        out.append(np.einsum("k,ki,kj->ij", phases, factor, factor))
    if order >= 3:
        out.append(np.einsum("k,ki,kj,kl->ijl", phases, factor, factor, factor))
    scale = float(np.sum(np.abs(phases)))
    return out, scale


def theta(z: np.ndarray, ctx: ThetaContext) -> complex:
    return theta_with_derivs(z, ctx, order=0)[0][0]


# -- wp values ---------------------------------------------------------------


@dataclass
class WpValues:
    u: np.ndarray
    wp2: dict[tuple[int, int], complex]
    wp3: dict[tuple[int, int, int], complex]

    def wp(self, *indices: int) -> complex:
        key = tuple(sorted(indices))
        return self.wp2[key] if len(key) == 2 else self.wp3[key]


def _reduce_modulo_lattice(z: np.ndarray, tau: np.ndarray) -> np.ndarray:
    k2 = np.round(np.linalg.solve(tau.imag, z.imag))
    z = z - tau @ k2
    return z - np.round(z.real)


def wp_from_theta(u: np.ndarray, periods: PeriodData) -> WpValues:
    """All second and third wp values at u, indexed by gap pairs/triples.

    log sigma = (1/2) u^T kappa u + log theta[d](omega^-1 u) up to gauge
    terms killed by the derivatives; wp_{ij} = -d_i d_j log sigma.
    """
    fam = periods.fam
    g = fam.genus
    u = np.asarray(u, dtype=complex)
    z = _reduce_modulo_lattice(np.linalg.solve(periods.omega, u), periods.tau)
    (val, grad, hess, third), scale = theta_with_derivs(z, periods.theta, order=3)
    if abs(val) <= 1e-10 * scale:
        raise OnThetaDivisor(f"|theta| = {abs(val):.3e} at the reduced argument")
    log1 = grad / val
    log2 = hess / val - np.outer(log1, log1)
    log3 = (
        third / val
        - (
            np.einsum("ij,k->ijk", hess, grad)
            + np.einsum("ik,j->ijk", hess, grad)
            + np.einsum("jk,i->ijk", hess, grad)
        )
        / val ** 2
        + 2.0 * np.einsum("i,j,k->ijk", log1, log1, log1)
    )
    w = np.linalg.inv(periods.omega)
    hess_u = w.T @ log2 @ w
    third_u = np.einsum("ia,jb,lc,ijl->abc", w, w, w, log3)
    gaps = list(fam.gaps)
    wp2 = {}
    wp3 = {}
    for a in range(g):
        for b in range(a, g):
            wp2[(gaps[a], gaps[b])] = complex(
                -periods.kappa[a, b] - hess_u[a, b]
            )
            for c in range(b, g):
                wp3[(gaps[a], gaps[b], gaps[c])] = complex(-third_u[a, b, c])
    return WpValues(u, wp2, wp3)


# -- Abel map ----------------------------------------------------------------


def _series_inv_sqrt(q: np.ndarray, order: int) -> np.ndarray:
    # ascending coefficients of 1/sqrt(1 + q_1 xi + ...), q[0] == 1
    out = np.zeros(order, dtype=complex)
    out[0] = 1.0
    for _ in range(order.bit_length() + 2):
        sq = np.convolve(out, out)[:order]
        err = np.convolve(sq, q[:order])[:order]
        err[0] -= 1.0
        out = out - 0.5 * np.convolve(out, err)[:order]
    return out


SERIES_ORDER = 52


def _series_leg(fam: CurveFamily, p: np.ndarray, es: np.ndarray):
    # u_w(xi) = integral of xi^(w-1) / h(xi) with h = y xi^s at infinity,
    # summed out to xi0, well inside the disc the branch points leave clear
    xi0 = min(0.35, 0.5 / math.sqrt(float(np.max(np.abs(es))) + 1e-9))
    q = np.zeros(SERIES_ORDER, dtype=complex)
    deg = fam.s
    for i in range(deg + 1):
        e = 2 * (deg - i)
        if e < SERIES_ORDER:
            q[e] += p[i]
    hinv = _series_inv_sqrt(q, SERIES_ORDER)
    u = np.zeros(fam.genus, dtype=complex)
    for k in range(1, fam.genus + 1):
        w = 2 * k - 1
        exps = w + np.arange(SERIES_ORDER)
        u[k - 1] = np.sum(hinv * xi0 ** exps / exps)
    h = np.polyval(hinv[::-1], xi0)
    x0 = xi0 ** -2.0
    y0 = xi0 ** -float(fam.s) / h
    return u, CurvePoint(complex(x0), complex(y0))


def _segments_avoiding(
    start: complex, end: complex, es: np.ndarray, clearance: float, depth: int = 0
) -> list[tuple[complex, complex]]:
    if depth > 8:
        raise PathThroughBranchPoint(
            "could not route the integration path clear of branch points"
        )
    direction = end - start
    length = abs(direction)
    if length < 1e-14:
        return []
    for e in es:
        t = ((e - start) / direction).real
        if 0.02 < t < 0.98:
            foot = start + t * direction
            gap = abs(e - foot)
            if gap < clearance:
                unit = direction / length
                normal = 1j * unit
                side = normal if (e - foot).real * normal.real + (
                    e - foot
                ).imag * normal.imag <= 0 else -normal
                way = foot + side * 2.0 * clearance
                return _segments_avoiding(
                    start, way, es, clearance, depth + 1
                ) + _segments_avoiding(way, end, es, clearance, depth + 1)
    return [(start, end)]


def abel_map(
    fam: CurveFamily,
    periods: PeriodData,
    point: CurvePoint | None = None,
    panels: int = 64,
    nodes: int = 12,
) -> np.ndarray:
    """u(P) = integral of du from infinity to P, sheet tracked throughout.

    The tail from infinity comes from the expansion in the local parameter
    down to xi0; the rest is quadrature along segments routed around the
    branch points.  A landing on the conjugate sheet flips the sign, which
    is exact because the involution fixes infinity and negates du.
    """
    _require_two_sheets(fam)
    g = fam.genus
    if point is None:
        return np.zeros(g, dtype=complex)
    es = periods.branch_points
    u, here = periods.infinity_leg
    u = u.copy()
    du = _du_numerators(fam)
    clearance = 0.2 * periods.spacing
    p = curve_polynomial(fam)
    y_prev = here.y
    for seg_start, seg_end in _segments_avoiding(
        here.x, point.x, es, clearance
    ):
        ts, ws = _gl_nodes(panels, nodes, 0.0, 1.0)
        xs = seg_start + ts * (seg_end - seg_start)
        dxs = np.full(len(ts), seg_end - seg_start, dtype=complex)
        vals, ys = _integrate_along(p, du, xs, dxs, ws, y_prev)
        u = u + vals
        y_prev = _track_sheet(p, np.array([seg_end]), ys[-1])[0]
    y_scale = max(1.0, abs(point.y))
    if abs(y_prev - point.y) <= LANDING_TOL * y_scale:
        return u
    if abs(y_prev + point.y) <= LANDING_TOL * y_scale:
        return -u
    miss = min(abs(y_prev - point.y), abs(y_prev + point.y)) / y_scale
    raise SheetLoss(
        f"continuation landed at y = {y_prev:.6g}, matching neither sheet "
        f"over x = {point.x:.6g} (nearest sheet {miss:.3e} away, "
        f"tolerance {LANDING_TOL:g})"
    )


def abel_map_divisor(
    fam: CurveFamily, periods: PeriodData, divisor: Divisor
) -> np.ndarray:
    total = np.zeros(fam.genus, dtype=complex)
    for p in divisor.points:
        total = total + abel_map(fam, periods, p)
    return total


# -- end-to-end verification -------------------------------------------------


@dataclass
class IdentityCheck:
    identity: str
    lhs: complex
    rhs: complex

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs)


def report_payload(report: list[IdentityCheck]) -> list[dict]:
    return [
        {
            "identity": c.identity,
            "lhs": [c.lhs.real, c.lhs.imag],
            "rhs": [c.rhs.real, c.rhs.imag],
            "abs_err": c.abs_err,
        }
        for c in report
    ]


def verify_inversion(
    fam: CurveFamily,
    divisor: Divisor,
    periods: PeriodData | None = None,
) -> list[IdentityCheck]:
    """Check a concrete divisor against the derived inversion system.

    Computes u = A(D) and the wp values there, and evaluates the exact
    layer's system at them.  Its y-free function R_2g is monic of degree g
    in x with roots the x_k, so its coefficients must give the elementary
    symmetric functions e_k(x); R_2g+1 = rho_0(x) + rho_1(x) y vanishes on
    D, so each y_k must be -rho_0(x_k)/rho_1(x_k).
    """
    _require_two_sheets(fam)
    g = fam.genus
    if len(divisor) != g:
        raise ValueError(f"need a degree-{g} divisor")
    if divisor.special:
        raise SpecialDivisor("inversion identities exclude special divisors")
    if periods is None:
        periods = compute_periods(fam)
    u = abel_map_divisor(fam, periods, divisor)
    vals = wp_from_theta(u, periods)
    derived = _derived_system(fam.n, fam.s, fam.extended)
    symbols = {
        sym: vals.wp(*sym.indices)
        for fn in derived.r_functions
        for coeff in fn.terms.values()
        for sym in coeff.terms
    }
    system = numeric_system(derived, fam, symbols)
    chi = system.rho[0][0]
    rho0, rho1 = system.rho[1]
    e = [1 + 0j] + [0j] * g  # prod (X + x_k) = sum e_k X^(g-k)
    for p in divisor.points:
        for k in range(g, 0, -1):
            e[k] += p.x * e[k - 1]
    checks = [
        IdentityCheck(
            f"e_{k}(x) from R_{2 * g}",
            e[k],
            complex((-1) ** k * chi[g - k] / chi[g]),
        )
        for k in range(1, g + 1)
    ]
    for idx, p in enumerate(divisor.points, 1):
        checks.append(
            IdentityCheck(
                f"y_{idx} from R_{2 * g + 1}",
                p.y,
                -_poly_at(rho0, p.x) / _poly_at(rho1, p.x),
            )
        )
    return checks
