"""Numeric closure on two-sheeted curves: periods, wp, Abel map.

Everything here works on (2, 2g+1) families with numeric coefficients, real
branch points e_1 < ... < e_2g+1 and genus 1 to MAX_GENUS.  Every integral
is a Gauss-Legendre leg along a segment from a branch point, gated by the
same sum at a finer node count.  The periods of du and of Baker's
closed-form dr are sums of 2g integrals between adjacent branch points, each
two legs that meet at the interval's midpoint on the sheet of the upper lip,
where y has the closed form sqrt|p(x)| i^#{m : e_m > x}.  Sigma is realized
through theta[delta] (see nscurves.theta), delta the characteristic of the
Riemann constants, a constant of the fixed homology basis, written in closed
form and checked by one theta value per curve.  Sigma is so known up to a
gauge factor exp(quadratic) that the wp functions do not see.  The Abel map
starts at the branch point nearest the point, whose image is a half period
in closed form, and adds one leg from there.  The closing check reads the
inversion system that the exact layer derives for the shape, with lambda
symbolic, at the wp values of A(D); the du numerators come from that system
too.

Per shape, cached and read-only: the derived system, the du numerators,
the branch points' half characteristics and each symbol's place among the
wp values; per branch point count, the leg tables.  Per curve, kept in
PeriodData: one curve polynomial, one batch of legs, one omega^-1 for the
b-cycle flips, kappa, wp and the characteristic check, the theta context
(whose constructor, theta_context, is the one gate on tau: nothing here
checks tau) and the system compiled at lambda.  Per divisor: one batch of
legs, one theta evaluation to order 3 and one gather of the wp values the
system reads.  Gates format messages only on failure.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .abelian import InversionSystem, build_inversion_system
from .curves import CurveFamily, CurvePoint, _closest_pair, make_family
from .divisors import (CompiledSystem, Divisor, _system_symbols, compile_system,
                       require_finite_points)
from .errors import (BranchCollision, ComplexBranchPoints, NotTwoSheeted, OnThetaDivisor,
                     QuadratureNotConverged, SheetLoss, SpecialDivisor, UnsupportedGenus,
                     above, at_most)
from .theta import ThetaContext, _reduce_modulo_lattice, theta_context, theta_with_derivs

# kappa = KAPPA_SIGN * sym(eta omega^-1); the sign is a convention constant
# tied to the orientation of Baker's dr rows, fixed once against the genus-1
# uniformization and validated independently on genus 2 and genus 3
KAPPA_SIGN = -1.0

# theta sums the (2R+1)^g cube.  At genus 4 (cli demo curve, rng seed 5: R = 6,
# 28,561 terms; one x86-64 core, numpy 2.4.6) compute_periods takes 31-37 ms,
# each verify_inversion 5-7 ms and the process peaks at 58 MB
MAX_GENUS = 3

# quadrature: Gauss-Legendre nodes per leg from a branch point, the periods'
# legs and the Abel map's alike, checked against LEG_CHECK_NODES.  The gate
# bounds the relative difference of the two sums.  The coarser one is kept:
# both have converged, and it rounds less (on the hyper-loop pools of seeds
# 1-40, mean err_margin_digits is 7.01 with 32-node legs and 6.77 with
# 48-node ones checked against 64)
LEG_NODES = 32
LEG_CHECK_NODES = 48
QUADRATURE_TOL = 1e-10
# relative: a point's y from the nearer sheet, largest |theta[delta]| where it
# must vanish, least |theta| where wp is evaluated
LANDING_TOL = 1e-4
CHARACTERISTIC_TOL = 1e-6
THETA_DIVISOR_TOL = 1e-10
# relative to the branch points' size: least distance (over a double root's
# ~sqrt(eps) smear), largest |Im e|, and |mean| and dropped coefficients
COLLISION_TOL = 1e-6
REAL_AXIS_TOL = 1e-9
MEAN_TOL = 1e-12
COEFFICIENT_TRIM = 1e-13


def _require_y_squared(fam: CurveFamily) -> None:
    """Raise NotTwoSheeted unless the curve reads y^2 = p(x)."""
    if fam.n != 2:
        raise NotTwoSheeted(f"y^2 = p(x) needs n = 2, not n = {fam.n}")
    on_y = [k for k in fam.lam if fam._index_map[k][0]]
    if on_y:
        raise NotTwoSheeted(f"y^2 = p(x) has no y term, but lambda_{max(on_y)} multiplies y")


def _require_two_sheets(fam: CurveFamily, periods: PeriodData | None = None) -> None:
    """Raise unless fam is y^2 = p(x) up to MAX_GENUS, and the curve of periods."""
    _require_y_squared(fam)
    if fam.genus > MAX_GENUS:
        raise UnsupportedGenus(f"genus {fam.genus} is above {MAX_GENUS}")
    if periods is not None and fam is not periods.fam:
        p, q = curve_polynomial(fam), curve_polynomial(periods.fam)
        if not np.array_equal(p, q):
            raise ValueError(f"periods of y^2 = p(x) with ascending p = {q}, not {p}")


def curve_polynomial(fam: CurveFamily) -> np.ndarray:
    """y^2 = p(x): ascending coefficients of p, degree 2g+1."""
    _require_y_squared(fam)
    return fam._table()[:, 2].copy()  # f = p(x) - y^2: the y^0 column


def branch_points(fam: CurveFamily) -> np.ndarray:
    return _sorted_roots(curve_polynomial(fam))


def _sorted_roots(p: np.ndarray) -> np.ndarray:
    """The ascending p's roots, sorted; BranchCollision if two meet."""
    roots = np.roots(p[::-1])
    scale = max(1.0, float(np.abs(roots).max()))
    a, b = _closest_pair(roots)
    above(abs(roots[a] - roots[b]), COLLISION_TOL * scale, BranchCollision,
          lambda: f"branch points {roots[a]:.6g} and {roots[b]:.6g} collide: distance")
    return np.sort(roots)


def hyperelliptic_from_branch_points(es: Sequence[complex]) -> CurveFamily:
    """The (2, 2g+1) family whose finite branch points are the given es."""
    es = [complex(e) for e in es]
    if len(es) % 2 != 1 or not np.all(np.isfinite(es)):
        raise ValueError(f"need an odd number of finite branch points, not {es}")
    s = len(es)
    at_most(abs(sum(es) / s), MEAN_TOL * max(1.0, max(abs(e) for e in es)),
            ValueError, "branch points must sum to zero (shift by the mean): |mean|")
    coeffs = np.poly(es)  # descending, monic
    size = max(1.0, float(np.max(np.abs(coeffs))))
    lam = {}
    for i in range(s - 1):
        c = complex(coeffs[s - i])
        if abs(c) > COEFFICIENT_TRIM * size:
            value = c.real if abs(c.imag) < COEFFICIENT_TRIM * size else c
            lam[2 * s - 2 * i] = value
    return make_family(2, s, lam)


@functools.lru_cache(maxsize=8)
def _shape_tables(
    n: int, s: int, extended: bool
) -> tuple[InversionSystem, np.ndarray, np.ndarray, np.ndarray]:
    """The shape's derived system and its tables; cached, so read-only.

    The system is the exact layer's, lambda symbolic.  Its du numerators,
    one x^i per gap in ascending gap order, are the columns of the first
    table.  Row j of the second is [eps'_j | eps''_j], so A(e_j) = omega
    eps'_j + omega' eps''_j for the 0-indexed branch point j is that row times
    [omega omega']^T.  With j' = j + 1, 2 eps'_j has ones in its first
    floor(j'/2) entries and 2 eps''_j is the unit vector at ceil(j'/2), zero
    for j' = 2g + 1 (Buchstaber, Enolski and Leykin 1997, for the a/b basis
    of compute_periods): half periods, so the cycle signs do not matter.
    The third holds each symbol's index into [wp2 | wp3], as WpValues.wp reads.
    """
    system = build_inversion_system(make_family(n, s, "sym", extended=extended))
    g = system.fam.genus
    j, k, flat = np.arange(2 * g + 1)[:, None], np.arange(g), np.arange(g * g * (g + 1))
    halves = np.concatenate([k < (j + 1) // 2, k == j // 2], axis=1) / 2
    places = WpValues(flat[: g * g].reshape(g, g), flat[g * g :].reshape(g, g, g),
                      tuple(system.fam.gaps))
    index = np.array([int(places.wp(*sym.indices).real) for sym in _system_symbols(system)])
    powers = [mono.i for mono in system.first.numerators]
    du = np.zeros((max(powers) + 1, g), dtype=complex)
    du[powers, np.arange(g)] = 1.0
    tables = (du, halves, index)
    for table in tables:
        table.flags.writeable = False
    return system, *tables


def _dr_numerators(p: np.ndarray) -> np.ndarray:
    # Baker's closed form (Baker 1897; Buchstaber, Enolski and Leykin 1997),
    # p ascending and monic: row k, dual to du_(2k-1) = x^(g-k) dx/(-2y),
    # holds sum_{m=j}^{2g-j} (m+1-j) p_(m+1+j) x^m with j = g+1-k; the rows
    # are the columns of one 2g x g array, ascending like the du table
    g = len(p) // 2 - 1
    out = np.zeros_like(p, shape=(2 * g, g))
    for k, j in enumerate(range(g, 0, -1)):
        out[j : 2 * g + 1 - j, k] = [(m + 1 - j) * p[m + 1 + j] for m in range(j, 2 * g + 1 - j)]
    return out


# -- quadrature from the branch points ---------------------------------------


@functools.lru_cache(maxsize=8)
def _leg_tables(count: int) -> tuple[np.ndarray, ...]:
    """_leg's tables for count branch points; cached, so read-only.

    Row j of the first lists the other branch points from j on round the cycle.
    The second holds the squared Gauss-Legendre nodes on [0, 1] of LEG_NODES,
    then of LEG_CHECK_NODES, then 1.0 for x itself; the rows of the third are
    the two weight sets, zero off their nodes.
    """
    (ts, ws), (check_ts, check_ws) = map(np.polynomial.legendre.leggauss,
                                         (LEG_NODES, LEG_CHECK_NODES))
    weights = np.zeros((2, LEG_NODES + LEG_CHECK_NODES))
    weights[0, :LEG_NODES], weights[1, LEG_NODES:] = ws / 2, check_ws / 2
    tables = ((np.arange(count)[:, None] + np.arange(1, count)) % count,
              ((np.concatenate([ts, check_ts, [1.0]]) + 1) / 2) ** 2, weights)
    for table in tables:
        table.flags.writeable = False
    return tables


def _leg(
    es: np.ndarray, coeffs: np.ndarray, js: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per point k: (integral from e_js[k] to xs[k] of num dx / (-2y), y there).

    Row k of the first array holds the integrals of every numerator along
    the segment from the branch point e = e_js[k] to x = xs[k].  With
    x' = e + s^2 (x - e), sigma = sqrt(x - e) and q = p/(x' - e), the
    integrand is -num(x') sigma / sqrt(q(x')) ds on s in [0, 1], which is
    analytic when no branch point is nearer x than e: the segment then lies
    in the disc about x that holds no other branch point.  Each factor
    x' - e_m of q is turned by r_m, which takes the segment's midpoint to
    the positive axis, so no factor's square root crosses its cut and y
    needs no tracking.  Every point's sum is gated against its own sum at
    LEG_CHECK_NODES.
    """
    js = np.asarray(js)
    xs = np.asarray(xs, dtype=complex)
    cycle, squares, weights = _leg_tables(len(es))
    e = es[js]
    others = es[cycle[js]].T[..., None]  # 2g x points x 1
    r = np.conj((e + xs)[:, None] / 2 - others)
    r = r / np.abs(r)
    # both node sets and x itself in one batch: points x nodes
    x = e[:, None] + squares * (xs - e)[:, None]
    sqrt_q = np.sqrt(r * (x - others)).prod(axis=0) / np.sqrt(r).prod(axis=0)
    sigma = np.sqrt(xs - e)
    nums = coeffs[-1][:, None, None]  # Horner: numerator, point, node
    for c in coeffs[-2::-1]:
        nums = nums * x[:, :-1] + c[:, None, None]
    # one dot product per set: one product with both as columns rounds worse
    # (on the hyper-loop pools of seeds 1-40, mean margin 6.98 digits, not 7.01)
    terms = -sigma[:, None] * (nums / sqrt_q[:, :-1])
    vals, check = (terms @ weights[0]).T, (terms @ weights[1]).T
    # each point against its own scale; the worst point is gated, and argmax
    # picks a NaN first
    moves = np.abs(check - vals).max(axis=1) / np.maximum(1.0, np.abs(check).max(axis=1))
    k = int(moves.argmax())
    at_most(float(moves[k]), QUADRATURE_TOL, QuadratureNotConverged,
            lambda: f"the leg from the branch point {e[k]:.6g} to x = {xs[k]:.6g} did not "
            "converge: relative difference between node counts")
    return vals, sigma * sqrt_q[:, -1]


def _interval_integrals(es: np.ndarray, coeffs: np.ndarray, x0: complex) -> tuple[np.ndarray, ...]:
    """(I, the leg from e_2g+1 to x0), every integral from one batch of legs.

    es are the real branch points in ascending order and coeffs the
    numerators as columns; row j of I holds, for every numerator, I_j =
    integral from e_j to e_j+1 of num dx / (-2 y(x + i0)).  That is the leg
    from e_j to the interval's midpoint m_j minus the leg from e_j+1 to m_j,
    each on the sheet that meets the upper lip, where y(m_j + i0) =
    |y(m_j)| i^#{k : e_k > m_j}; the sign is read from the y of each leg.
    """
    n = len(es) - 1
    mid = (es[:-1] + es[1:]) / 2
    js = np.concatenate([np.arange(n), np.arange(1, n + 1), [n]])
    legs, ys = _leg(es, coeffs, js, np.concatenate([mid, mid, [x0]]))
    lip = 1j ** np.arange(n, 0, -1)  # y(m_j + i0) / |y(m_j)|
    on_lip = np.copysign(1.0, (ys[:-1].reshape(2, n) / lip).real).reshape(-1, 1) * legs[:-1]
    return on_lip[:n] - on_lip[n:], legs[-1]


# -- periods -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PeriodData:
    """One curve's constants: everything verify_inversion does not recompute.

    du and symbol_index are the shape's (see _shape_tables), the rest the curve's.
    """

    fam: CurveFamily
    branch_points: np.ndarray
    omega: np.ndarray
    omega_prime: np.ndarray
    eta: np.ndarray
    tau: np.ndarray
    kappa: np.ndarray
    # theta[delta] at tau, delta the characteristic of the Riemann constants
    theta: ThetaContext
    legendre_defect: float
    omega_inv: np.ndarray
    # [d2 | d3] flattened in z times this, kron(w, w) and kron(w, w, w) down
    # its diagonal, is [d2 | d3] in u: d/du = w^T d/dz, w = omega^-1
    to_u: np.ndarray
    # the du numerators as columns, and A(e_j) as row j (see _shape_tables)
    du: np.ndarray
    branch_images: np.ndarray
    # the shape's derived inversion system at this curve's lambda
    system: CompiledSystem
    symbol_index: np.ndarray


def _orient_b_cycles(
    omega: np.ndarray, omega_prime: np.ndarray, omega_inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """tau and omega' after the one b-cycle flip.

    Flipping a-cycles by D_a and b-cycles by D_b turns omega^-1 omega' into
    D_a tau_r D_b.  If that passes the tau gate, so does its conjugate
    tau_r D_b D_a, so the a-cycles never need a flip; and the diagonal of
    Im(tau_r D_b) is d_k Im(tau_r)_kk, so d_k = sign Im(tau_r)_kk; that
    flip is the only one that can pass the gate (see theta_context).
    """
    flips = np.sign((omega_inv @ omega_prime).diagonal().imag)
    omega_prime = omega_prime * flips
    # solved rather than multiplied by omega_inv, so tau has the bits of
    # omega^-1 omega' for the flipped omega'; a flip read off the product can
    # differ from one read off the solve only where the gate fails either way
    return np.linalg.solve(omega, omega_prime), omega_prime


def compute_periods(fam: CurveFamily) -> PeriodData:
    """Period matrices from integrals between branch points, plus sigma data.

    a_k encircles the pair (e_2k-1, e_2k) and b_k the tail e_2k..e_2g+1.
    With I_j the integral from e_j to e_j+1 on the upper lip (see
    _interval_integrals), a_k = 2 (-1)^(g-k) I_2k-1 and
    b_k = -2 sum_{m=k..g} I_2m; this fixes each a-cycle's sign, and each
    b-cycle's sign is read off the diagonal of Im tau, the one choice that
    can make tau symmetric with positive-definite imaginary part (see
    _orient_b_cycles).  The sign flips cannot move a half-integer
    characteristic mod 1, so the characteristic of the Riemann constants is
    that of the basis, written down by _riemann_characteristic; one theta
    value confirms it (see _check_riemann_characteristic).
    """
    _require_two_sheets(fam)
    g = fam.genus
    p = curve_polynomial(fam)
    es = _sorted_roots(p)
    scale = float(np.abs(es).max()) + 1.0
    at_most(float(np.abs(es.imag).max()), REAL_AXIS_TOL * scale, ComplexBranchPoints,
            "interval periods need real branch points; largest |Im e|")
    system, du, halves, symbol_index = _shape_tables(fam.n, fam.s, fam.extended)
    # the I_j, and the leg from e_2g+1 to P0 over e_2g+1 + 1 + i, of the du
    # and dr numerators side by side
    dr = _dr_numerators(p)
    coeffs = np.zeros((len(dr), 2 * g), dtype=complex)
    coeffs[: len(du), :g], coeffs[:, g:] = du, dr
    ints, leg = _interval_integrals(es.real, coeffs, es[-1].real + 1.0 + 1.0j)
    # rows are cycles; + 0j makes a -0.0 imaginary part +0.0, so that equal
    # periods have equal bytes
    a = 2.0 * (-1.0) ** np.arange(g - 1, -1, -1)[:, None] * ints[0::2] + 0j
    b = -2.0 * np.cumsum(ints[-1::-2, :g], axis=0)[::-1]
    omega, eta = a[:, :g].T, a[:, g:].T
    omega_inv = np.linalg.inv(omega)
    tau, omega_prime = _orient_b_cycles(omega, b.T, omega_inv)
    # the one tau gate, before kappa, to_u or the half periods are built
    ctx = theta_context(tau, _riemann_characteristic(g))
    # the Kronecker products, broadcast: np.kron takes 6 times as long
    w2 = (omega_inv[:, None, :, None] * omega_inv[:, None]).reshape(g * g, -1)
    to_u = np.zeros((g * g + g ** 3,) * 2, dtype=complex)
    to_u[: g * g, : g * g] = w2
    to_u[g * g :, g * g :] = (w2[:, None, :, None] * omega_inv[:, None]).reshape(g ** 3, -1)
    raw = eta @ omega_inv
    defect = float(np.linalg.norm(raw - raw.T))
    kappa = KAPPA_SIGN * (raw + raw.T) / 2
    images = halves @ np.concatenate([omega, omega_prime], axis=1).T
    # A(P0): the image of e_2g+1 plus the du columns of its leg
    _check_riemann_characteristic(ctx, omega_inv, images[-1] + leg[:g])
    return PeriodData(fam, es, omega, omega_prime, eta, tau, kappa, ctx, defect, omega_inv,
                      to_u, du, images, compile_system(system, fam), symbol_index)


def _riemann_characteristic(g: int) -> tuple[np.ndarray, np.ndarray]:
    """delta' = (1/2, ..., 1/2), delta''_k = (g - k + 1)/2 mod 1.

    The half characteristic of the vector of Riemann constants for the
    a/b basis of compute_periods (Buchstaber, Enolski and Leykin 1997):
    genus 1 gives the odd [1/2; 1/2], genus 2 gives [1/2 1/2; 0 1/2].
    """
    return np.full(g, 0.5), np.arange(g, 0, -1) / 2.0 % 1.0


def _check_riemann_characteristic(
    ctx: ThetaContext, omega_inv: np.ndarray, u_point: np.ndarray
) -> None:
    """Raise OnThetaDivisor unless theta[delta] vanishes at (g - 1) u_point.

    theta[delta] vanishes on A(W_{g-1}).  u_point is A(P) for one point P
    that is not a branch point, so (g - 1) u_point = A((g - 1) P) lies in
    A(W_{g-1}) for every g (at g = 1 it is 0, and W_0 = {0}).  With P over
    e_2g+1 + 1 + i, on the 210 curves of the hyper-loop pools of seeds 1-10,
    delta reads at most 8e-16 there and each of the other 4^g - 1 at least
    0.1 (0.03 on 20 genus-3 curves; a real P, e_2g+1 + 1, gave 5e-5).
    """
    g = len(u_point)
    z = _reduce_modulo_lattice(omega_inv @ ((g - 1) * u_point), ctx)
    (val,), scale = theta_with_derivs(z, ctx, order=0)
    at_most(abs(val), CHARACTERISTIC_TOL * scale, OnThetaDivisor,
            lambda: f"theta[delta] does not vanish on A(W_{g - 1}) (tolerance "
            f"{CHARACTERISTIC_TOL:g} of scale {scale:.3e}): |theta|")


# -- wp values ---------------------------------------------------------------


@dataclass
class WpValues:
    """wp2[a, b] = wp_{gaps[a] gaps[b]} and wp3[a, b, c] likewise at u."""

    wp2: np.ndarray
    wp3: np.ndarray
    gaps: tuple[int, ...]

    def wp(self, *indices: int) -> complex:
        if len(indices) not in (2, 3) or not set(indices) <= set(self.gaps):
            raise ValueError(f"wp takes two or three indices among the gaps {self.gaps}, "
                             f"not {indices}")
        # sorted, so every order of the indices reads the same entry
        key = tuple(sorted(self.gaps.index(i) for i in indices))
        return complex((self.wp2 if len(key) == 2 else self.wp3)[key])


def wp_from_theta(u: np.ndarray, periods: PeriodData) -> WpValues:
    """All second and third wp values at u, as tensors over the gaps.

    log sigma = (1/2) u^T kappa u + log theta[d](omega^-1 u) up to gauge
    terms killed by the derivatives; wp_{ij} = -d_i d_j log sigma.  The
    z-derivatives of log theta go to u in one product (see PeriodData.to_u).
    """
    g = periods.fam.genus
    u = np.asarray(u, dtype=complex)
    z = _reduce_modulo_lattice(periods.omega_inv @ u, periods.theta)
    (val, grad, hess, third), scale = theta_with_derivs(z, periods.theta, order=3)
    above(abs(val), THETA_DIVISOR_TOL * scale, OnThetaDivisor,
          "u is on or near the theta divisor: |theta| at the reduced argument")
    log1 = grad / val
    outer = np.outer(log1, log1)  # log1[:, None] * log1 takes another loop, other bits
    log2 = hess / val - outer
    # hess_ij grad_k summed over the three placements of the lone index
    hg = np.multiply.outer(hess, grad)
    log3 = (third / val - (hg + hg.transpose(0, 2, 1) + hg.transpose(2, 0, 1)) / val ** 2
            + 2.0 * np.multiply.outer(outer, log1))
    in_u = np.concatenate([log2.ravel(), log3.ravel()]) @ periods.to_u
    return WpValues(-periods.kappa - in_u[: g * g].reshape(g, g),
                    -in_u[g * g :].reshape(g, g, g), tuple(periods.fam.gaps))


# -- Abel map ----------------------------------------------------------------


def _abel_images(periods: PeriodData, points: Sequence[CurvePoint]) -> np.ndarray:
    """Row k: u(P_k) = A(e) + integral of du from e to P_k, e nearest P_k.

    A(e) is a half period in closed form (see _shape_tables) and the legs
    are one gated Gauss-Legendre sum over all the points (see _leg), whose
    y at P.x is sigma sqrt(q(P.x)).  If that is -P.y, the leg is negated,
    as the involution fixes e and negates du.  A point whose y matches
    neither sheet is refused.  The callers have refused non-finite points.
    """
    if not points:
        return np.zeros((0, len(periods.omega)), dtype=complex)
    xs = np.array([p.x for p in points], dtype=complex)
    ys = np.array([p.y for p in points], dtype=complex)
    es = periods.branch_points.real
    js = np.abs(xs[:, None] - es).argmin(axis=1)
    legs, y = _leg(es, periods.du, js, xs)
    limit = LANDING_TOL * np.maximum(1.0, np.abs(ys))
    plus, minus = np.abs(y - ys), np.abs(y + ys)
    # the point with the least headroom; argmax picks a NaN first
    k = int((np.minimum(plus, minus) - limit).argmax())
    at_most(min(plus[k], minus[k]), limit[k], SheetLoss,
            lambda: f"y = {ys[k]:.6g} matches neither sheet over x = {xs[k]:.6g}, "
            f"where y = +-{y[k]:.6g}: distance to the nearest sheet")
    # the + sheet first: beside a branch point both sheets match
    signs = np.where(plus <= limit, 1.0, -1.0)
    return periods.branch_images[js] + signs[:, None] * legs


def abel_map(fam: CurveFamily, periods: PeriodData, point: CurvePoint) -> np.ndarray:
    """u(P), the Abel map from infinity of one point (see _abel_images)."""
    _require_two_sheets(fam, periods)
    require_finite_points([point])
    return _abel_images(periods, [point])[0]


def abel_map_divisor(fam: CurveFamily, periods: PeriodData, divisor: Divisor) -> np.ndarray:
    """A(D), the sum of u(P) over the divisor's points, from one batch of legs."""
    _require_two_sheets(fam, periods)
    require_finite_points(divisor.points)
    return _abel_images(periods, divisor.points).sum(axis=0)


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
    return [{"identity": c.identity, "lhs": [c.lhs.real, c.lhs.imag],
             "rhs": [c.rhs.real, c.rhs.imag], "abs_err": c.abs_err} for c in report]


def verify_inversion(
    fam: CurveFamily, divisor: Divisor, periods: PeriodData
) -> list[IdentityCheck]:
    """Check a concrete divisor against the derived inversion system.

    Computes u = A(D) and the wp values there, and evaluates the exact
    layer's system at them.  Its y-free function R_2g is monic of degree g
    in x with roots the x_k, so its coefficients must give the elementary
    symmetric functions e_k(x); R_2g+1 = rho_0(x) + rho_1(x) y vanishes on
    D, so each y_k must be -rho_0(x_k)/rho_1(x_k).
    """
    _require_two_sheets(fam, periods)
    g = fam.genus
    if len(divisor) != g:
        raise ValueError(f"need a degree-{g} divisor")
    if divisor.special:
        raise SpecialDivisor("inversion identities exclude special divisors")
    require_finite_points(divisor.points)
    # abel_map_divisor's guards have run above
    vals = wp_from_theta(_abel_images(periods, divisor.points).sum(axis=0), periods)
    wp = np.concatenate([vals.wp2.ravel(), vals.wp3.ravel()])
    system = periods.system.evaluate(wp[periods.symbol_index])
    chi, (rho0, rho1) = system.rho[0, 0], system.rho[1]
    e = [1 + 0j] + [0j] * g  # prod (X + x_k) = sum e_k X^(g-k)
    for p in divisor.points:
        for k in range(g, 0, -1):
            e[k] += p.x * e[k - 1]
    checks = [IdentityCheck(f"e_{k}(x) from R_{2 * g}", e[k],
                            complex((-1) ** k * chi[g - k] / chi[g])) for k in range(1, g + 1)]
    # scalar Horner per point: numpy's array loops can round a complex
    # product differently, which would move the report in its last bits
    rho0, rho1 = rho0[::-1].tolist(), rho1[::-1].tolist()
    for idx, p in enumerate(divisor.points, 1):
        num = den = 0j
        for a, b in zip(rho0, rho1):
            num, den = num * p.x + a, den * p.x + b
        checks.append(IdentityCheck(f"y_{idx} from R_{2 * g + 1}", p.y, -num / den))
    return checks
