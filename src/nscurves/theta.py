"""Riemann theta with half characteristics, and its derivatives to order 3.

theta[delta](z | tau) sums exp(i pi m'^T tau m' + 2 pi i m'^T (z + delta''))
over m' = m + delta', m in the cube [-R, R]^g, the least cube whose tail is
below THETA_TAIL at a reduced argument (Deconinck, Heil, Bobenko, van Hoeij
and Schmies, Computing Riemann theta functions, Math. Comp. 2004, bound the
same tail over an ellipsoid).  Per genus, cube radius and delta', cached and
read-only: the lattice table [1 | 2 pi i m' | pairs].  Per tau: the one
gate on tau, which reads tau as a C-ordered complex array, refuses a
non-finite entry first, in one pass, and then reads one eigvalsh of
Y = sym(Im tau) for both the Riemann-matrix check and the radius, then the
quadratic exponents and (Im tau)^-1.  Per argument: one
exp per term and one product of the phases with the table.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, NonFiniteValue, NonSymmetricTau, above, at_most

THETA_TAIL = 1e-13
# tau gate: relative symmetry defect of tau; the largest |Re|, |Im| of an
# entry, a bound that keeps the exponents pi m'^T tau m' (|m'_i| <= 64.5, so
# at most 4161 g^2 |tau_ij| in size) far below overflow
TAU_SYMMETRY_TOL = 1e-8
TAU_ENTRY_LIMIT = 1e300


@functools.lru_cache(maxsize=16)
def _theta_table(g: int, radius: int, shift: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """theta's lattice arrays on m' = m + shift, m in [-radius, radius]^g; cached, so read-only.

    m'_i m'_j (row per term), 2 pi i m' (row per coordinate), and the table
    [1 | 2 pi i m' | pairs], pairs = -4 pi^2 m'_i m'_j its last g^2 columns.
    """
    grid = np.meshgrid(*[np.arange(-radius, radius + 1)] * g, indexing="ij")
    m = np.stack([a.ravel() for a in grid], axis=1) + np.array(shift)
    # m'_i m'_j, exact: products of half-integers below 64.5
    products = (m[:, :, None] * m[:, None, :]).reshape(len(m), -1)
    table = np.concatenate([np.ones((len(m), 1)), 2j * math.pi * m,
                            -4.0 * math.pi ** 2 * products + 0j], axis=1)
    tables = (products, np.ascontiguousarray(table[:, 1 : g + 1].T), table, table[:, g + 1 :])
    for array in tables:
        array.flags.writeable = False
    return tables


@dataclass(frozen=True, eq=False)
class ThetaContext:
    """theta[delta] at tau, truncated to the cube [-radius, radius]^g.

    factor, table and pairs are the lattice's, shared by every context of one
    genus, radius and delta' (see _theta_table).  The constructor builds what
    depends on tau: the exponents i pi m'^T tau m' of m' = m + delta' and
    (Im tau)^-1 for reducing arguments.  The context is frozen and its arrays
    read-only, so they always match its radius.  NonSymmetricTau unless tau
    is a non-empty square matrix with Im tau invertible, InvalidArgument
    unless delta', delta'' are vectors of tau's size, and NonFiniteValue
    unless they are finite: a NaN would make every theta NaN.
    """

    tau: np.ndarray
    characteristic: tuple[np.ndarray, np.ndarray]
    radius: int
    quad: np.ndarray = field(init=False, repr=False)
    factor: np.ndarray = field(init=False, repr=False)
    table: np.ndarray = field(init=False, repr=False)
    pairs: np.ndarray = field(init=False, repr=False)
    im_tau_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        tau = _square(np.array(self.tau, dtype=complex))
        g = len(tau)
        d1, d2 = (np.array(d, dtype=float) for d in self.characteristic)
        if d1.shape != (g,) or d2.shape != (g,):
            raise InvalidArgument(f"the characteristic of a genus-{g} tau must be two vectors "
                                  f"of length {g}, not of shapes {d1.shape} and {d2.shape}")
        if not (np.isfinite(d1).all() and np.isfinite(d2).all()):
            raise NonFiniteValue(f"the characteristic must be finite, not {d1}, {d2}")
        try:
            im_tau_inv = np.linalg.inv(tau.imag)
        except np.linalg.LinAlgError:
            raise NonSymmetricTau("tau is not a Riemann matrix: Im tau is singular") from None
        products, factor, table, pairs = _theta_table(g, self.radius, tuple(d1.tolist()))
        derived = {"tau": tau, "quad": 1j * math.pi * (products @ tau.ravel()),
                   "im_tau_inv": im_tau_inv}
        for value in (d1, d2, *derived.values()):
            value.flags.writeable = False
        derived.update(characteristic=(d1, d2), factor=factor, table=table, pairs=pairs)
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def _square(tau) -> np.ndarray:
    """tau as a complex array; NonSymmetricTau unless it is a non-empty square matrix."""
    tau = np.asarray(tau, dtype=complex)
    if tau.ndim != 2 or tau.shape[0] != tau.shape[1] or not tau.size:
        raise NonSymmetricTau(f"tau must be a non-empty square matrix, not of shape {tau.shape}")
    return tau


def _frobenius(a: np.ndarray) -> float:
    """np.linalg.norm(a) of a complex a, by the same sums, without its wrapper."""
    flat = a.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _log_tail(r: int, g: int, lam_min: float) -> float:
    """log of theta_context's bound on the terms outside [-r, r]^g."""
    # each shell past r is at most q < 1 times the one before
    q = ((r + 2) / (r + 1)) ** g * ((r + 2.5) / (r + 1.5)) ** 3 * math.exp(
        -math.pi * lam_min * (2 * r + 1))
    return (g * math.log(2 * r + 2) + 3 * math.log(2 * math.pi * (r + 1.5))
            - math.pi * lam_min * r * r - math.log1p(-q)) if q < 1 else math.inf


def theta_context(
    tau: np.ndarray, characteristic: tuple[np.ndarray, np.ndarray] | None = None
) -> ThetaContext:
    """theta[delta] at tau on the least cube whose tail is below THETA_TAIL.

    The one gate on tau: NonSymmetricTau unless tau is a square matrix with
    finite entries whose parts are at most TAU_ENTRY_LIMIT in size,
    symmetric within TAU_SYMMETRY_TOL and with Y = sym(Im tau) positive
    definite, and unless the cube's radius is at most 64; the constructor
    refuses a characteristic (zero if None) that is not finite or not of
    tau's size.  At a reduced z
    (see _reduce_modulo_lattice) Im z = Y c, |c_i| <= 1/2, and the term of
    m + delta' = v - c has modulus exp(pi c^T Y c - pi v^T Y v), so the sum
    of moduli (the scale) is at least exp(pi c^T Y c - pi g lam_max / 4).
    Outside [-R, R]^g, |v|_inf >= R; the shell s <= |v|_inf < s + 1 holds at
    most (2s + 2)^g terms, each below exp(pi c^T Y c - pi lam_min s^2) and
    weighted by at most (2 pi (s + 3/2))^3 in derivatives to order 3.
    """
    # a transposed or strided tau is read, and rounds, as its contiguous copy
    tau = np.ascontiguousarray(_square(tau))
    g = tau.shape[0]
    if characteristic is None:
        characteristic = (np.zeros(g), np.zeros(g))
    # a NaN or an inf would reach the defect as a numpy warning and eigvalsh
    # as a silent 0, so it is refused first; the float view holds every Re
    # and Im, so one pass reads the largest
    largest = float(np.abs(tau.view(float)).max())
    at_most(largest, TAU_ENTRY_LIMIT, NonSymmetricTau,
            "tau is not a Riemann matrix: largest |Re|, |Im| of an entry")
    # the defect of tau / 2^k, |entries| <= 1, cannot overflow; scaling by a
    # power of two rounds nothing, so it is the defect of tau itself
    unit = math.ldexp(1.0, -max(0, math.frexp(largest)[1]))
    scaled = tau * unit
    defect = _frobenius(scaled - scaled.T) / max(unit, _frobenius(scaled))
    # eigvalsh reads only one triangle of its input, so it is given sym(Im tau),
    # halved before the sum, which is exact and cannot overflow
    lam = np.linalg.eigvalsh(tau.imag / 2 + tau.imag.T / 2)
    lam_min = float(lam[0])
    # each gate's message carries the other's margin too
    above(lam_min, 0.0, NonSymmetricTau,
          lambda: f"tau is not a Riemann matrix: symmetry defect {defect:.3e}, tolerance "
          f"{TAU_SYMMETRY_TOL:g}; sym(Im tau) has least eigenvalue")
    at_most(defect, TAU_SYMMETRY_TOL, NonSymmetricTau,
            lambda: f"tau is not a Riemann matrix: sym(Im tau) has least eigenvalue "
            f"{lam_min:.3e}, needs > 0; symmetry defect")
    target = math.log(THETA_TAIL) - math.pi * g * float(lam[-1]) / 4
    # no R below the Gaussian's alone passes; past 64, Im tau is far from
    # reduced, and the cube is refused rather than cut short
    radius = math.sqrt(-target / (math.pi * lam_min))
    if radius <= 64:
        radius = max(1, int(radius))
        while _log_tail(radius, g, lam_min) >= target:
            radius += 1
    at_most(radius, 64, NonSymmetricTau, lambda: f"theta's tail bound at least eigenvalue "
            f"{lam_min:.3e} of sym(Im tau) needs a cube radius")
    return ThetaContext(tau, characteristic, radius)


def _reduce_modulo_lattice(z: np.ndarray, ctx: ThetaContext) -> np.ndarray:
    """z minus the lattice point tau k2 + k1 that brings it nearest the cell."""
    z = z - ctx.tau @ (ctx.im_tau_inv @ z.imag).round()
    return z - z.real.round()


def theta_with_derivs(z: np.ndarray, ctx: ThetaContext, order: int = 0):
    """Truncated lattice sum and its first derivative tensors in z.

    theta[d](z) = sum exp(i pi m'^T tau m' + 2 pi i m'^T (z + d'')) with
    m' = m + d'; the quadratic exponent is the context's.  It is added
    before the one exp per term rather than cached as its exp: at large
    |Im z| the linear term's exp alone overflows where the sum's does not.
    Derivatives differentiate term by term, which keeps every order as
    accurate as the sum itself: one product of the phases with the context's
    table gives the sum and its derivatives to order 2, and the third order
    is one product of the weighted factors with the pairs.  theta_context
    sizes the cube for reduced z; another z needs a wider ThetaContext.
    InvalidArgument unless z is a vector of tau's size.
    """
    z = np.asarray(z, dtype=complex)
    g = len(ctx.tau)
    if z.shape != (g,):
        raise InvalidArgument(f"z must be a vector of length {g}, not of shape {z.shape}")
    phases = np.exp(ctx.quad + (z + ctx.characteristic[1]) @ ctx.factor)
    sums = phases @ ctx.table
    out = [complex(sums[0]), sums[1 : g + 1], sums[g + 1 :].reshape(g, g)][: order + 1]
    if order >= 3:
        out.append(((ctx.factor * phases) @ ctx.pairs).reshape(g, g, g))
    return out, float(np.abs(phases).sum())
