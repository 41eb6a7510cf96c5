"""Divisors on a family and the two constructive directions of inversion.

Forward: a non-special degree-g divisor determines entire rational functions
vanishing on it, one per pole weight 2g..2g+count-1, through one SVD of its
monomial table and one QR of its null space.  Backward: the coefficient
grid of those functions determines the divisor again, by eliminating y into
a degree-g polynomial in x and keeping, over each of its roots, the points
of the curve's fiber that the grid vanishes on.
"""
import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .abelian import AbelianSymbol, InversionSystem
from .curves import CurveFamily, CurvePoint, make_family
from .errors import (
    CoordinateOverflow,
    DegenerateDeterminant,
    DegreeCollapse,
    MalformedGrid,
    NonFiniteValue,
    NullSpaceDimensionError,
    RootFindingFailure,
    SpecialDivisor,
    above,
    at_most,
)
from .expansions import second_kind_count

# relative: a point's largest residual |f|; the distance that joins roots or
# x into one cluster, and y into a fiber
RESIDUAL_TOL = 1e-8
CLUSTER_TOL = 1e-7
FIBER_MATCH_TOL = 1e-6
# relative to the largest: an interpolation matrix's least singular value,
# chi's leading coefficient
INTERPOLATION_TOL = 1e-10
COLLAPSE_TOL = 1e-10
# relative, as NumericRSystem.residuals reads it: over a root of chi of
# multiplicity mu, the mu kept fiber points must fit the grid within it and
# the next candidate must not, or the grid cannot tell them apart
FIBER_RESIDUAL_TOL = 1e-7
# the fewest points whose residuals _worst_residual reads in one numpy pass
BATCH_POINTS = 8


# -- divisors ----------------------------------------------------------------


@dataclass(frozen=True)
class Divisor:
    """A degree-g tuple of curve points; special when some fiber lies in it."""

    points: tuple[CurvePoint, ...]
    special: bool

    def __len__(self) -> int:
        return len(self.points)


def _fiber_matches(group: list[CurvePoint], fiber: Sequence[complex]) -> bool:
    # does the group's y multiset exhaust the fiber's roots over its x?
    left = [p.y for p in group]
    for y in fiber:
        limit = FIBER_MATCH_TOL * max(1.0, abs(y))
        hit = next((i for i, c in enumerate(left) if abs(c - y) <= limit), None)
        if hit is None:
            return False
        left.pop(hit)
    return True


def _clusters(xs: Sequence[complex]) -> list[list[int]]:
    """Indices of xs taken as one x, in order of (re x, im x).

    Each x joins the first cluster whose running mean lies within
    CLUSTER_TOL of it, relative to the mean's size.  An x whose real part
    is farther than ``reach`` from both of its neighbours' in that order is
    farther than reach from every other x, and so a cluster of its own: it
    is compared with none.
    """
    order = sorted(range(len(xs)), key=lambda i: (xs[i].real, xs[i].imag))
    # reach = 2 tau (2 + ln N) (1 + sum |x|), tau = CLUSTER_TOL, N = len(xs),
    # and H_N <= 1 + ln N.  In a cluster, member m_{t+1} lay within tau M of
    # the mean c_t of those before it (M the largest max(1, |c|) over its
    # means) and moved the mean by |m_{t+1} - c_t| / (t + 1).  So every mean,
    # and every x that joins, lies within tau M (1 + H_N) of each member m,
    # and M <= max(1, |m|) / (1 - tau (1 + H_N)) < 2 max(1, |m|) for any N
    # below 1e1000.  An x farther than reach from every other x thus joins no
    # cluster and none joins its own; the 2 covers rounding.  A NaN or an inf
    # makes reach NaN or inf, and no x lone.
    reach = 2 * CLUSTER_TOL * (2 + math.log(max(len(xs), 1))) * (1 + sum(map(abs, xs)))
    re = [-math.inf] + [xs[i].real for i in order] + [math.inf]
    clusters: list[list[int]] = []
    joinable: list[list] = []  # [members, sum of x] of each cluster of non-lone x
    for pos, i in enumerate(order, 1):
        lone = re[pos] - re[pos - 1] > reach and re[pos + 1] - re[pos] > reach
        for entry in () if lone else joinable:
            members, total = entry
            center = total / len(members)
            if abs(xs[i] - center) <= CLUSTER_TOL * max(1.0, abs(center)):
                members.append(i)
                entry[1] += xs[i]
                break
        else:
            clusters.append([i])
            if not lone:
                joinable.append([clusters[-1], xs[i]])
    return clusters


def _is_special(fam: CurveFamily, points: Sequence[CurvePoint]) -> bool:
    """Do the points over some one x exhaust the fiber there?"""
    if len(points) < fam.n:  # too few points to fill any fiber
        return False
    full = [c for c in _clusters([p.x for p in points]) if len(c) >= fam.n]
    groups = [[points[i] for i in c] for c in full]
    fibers = fam.fiber_roots([sum(p.x for p in g) / len(g) for g in groups])
    return any(_fiber_matches(g, f) for g, f in zip(groups, fibers.tolist()))


def _worst_residual(fam: CurveFamily, points: Sequence[CurvePoint]) -> float:
    """The points' largest |f| / (max(1, |x|)^s + max(1, |y|)^n), NaN if any is.

    From BATCH_POINTS points on, f is read at all of them in one numpy pass
    on the table; below, one point at a time in Python, where a point costs
    2-5 us and the pass's numpy calls about 15 us however many points.
    """
    if len(points) < BATCH_POINTS:
        worst = 0.0
        for p in points:
            try:
                scale = max(1.0, abs(p.x)) ** fam.s + max(1.0, abs(p.y)) ** fam.n
            except OverflowError:
                raise CoordinateOverflow(f"{p} overflows x^{fam.s} or y^{fam.n}") from None
            worst = float(np.maximum(worst, abs(fam.eval_f(p.x, p.y)) / scale))  # keeps NaN
        return worst
    x, y = np.array([(p.x, p.y) for p in points], dtype=complex).T
    try:
        with np.errstate(over="raise"):
            rows = fam._rows(x)
            values = rows[:, 0]
            for coeff in rows.T[1:]:
                values = values * y + coeff
            scale = np.maximum(1.0, np.abs(x)) ** fam.s + np.maximum(1.0, np.abs(y)) ** fam.n
    except (FloatingPointError, CoordinateOverflow):
        raise CoordinateOverflow(f"{list(points)} overflow x^{fam.s} or y^{fam.n}") from None
    return float((np.abs(values) / scale).max())  # keeps NaN


def require_finite_points(points: Sequence[CurvePoint]) -> None:
    """Raise ValueError unless every point's coordinates are finite."""
    for p in points:
        if not (cmath.isfinite(p.x) and cmath.isfinite(p.y)):
            raise ValueError(f"point coordinates must be finite, not {p}")


def make_divisor(fam: CurveFamily, points: Sequence[CurvePoint]) -> Divisor:
    """Validate the points against the curve and flag special positions."""
    pts = tuple(CurvePoint(complex(p.x), complex(p.y)) for p in points)
    require_finite_points(pts)
    at_most(_worst_residual(fam, pts), RESIDUAL_TOL, ValueError,
            "point off the curve: relative residual")
    return Divisor(pts, _is_special(fam, pts))


def sample_points(
    fam: CurveFamily, rng: np.random.Generator, count: int, scale: float = 1.0
) -> list[CurvePoint]:
    """``count`` random curve points, x complex normal, sheet uniform.

    Every (x, sheet) pair is drawn first, in the order that drawing the points
    one at a time would use, and then all fibers are lifted in one batch.
    """
    xs, sheets = [], []
    for _ in range(count):
        xs.append(complex(rng.normal(scale=scale), rng.normal(scale=scale)))
        sheets.append(int(rng.integers(fam.n)))
    ys = fam.fiber_roots(xs)[np.arange(count), sheets].tolist()
    return [CurvePoint(x, y) for x, y in zip(xs, ys)]


def sample_point(fam: CurveFamily, rng: np.random.Generator) -> CurvePoint:
    return sample_points(fam, rng, 1)[0]


def random_divisor(fam: CurveFamily, rng: np.random.Generator) -> Divisor:
    """A generic non-special divisor; redraws on the measure-zero failures."""
    for _ in range(64):
        pts = sample_points(fam, rng, fam.genus)
        if _worst_residual(fam, pts) <= RESIDUAL_TOL and not _is_special(fam, pts):
            return Divisor(tuple(pts), False)
    raise RootFindingFailure("could not sample a non-special divisor")


def divisor_payload(divisor: Divisor) -> list[list[float]]:
    return [
        [p.x.real, p.x.imag, p.y.real, p.y.imag] for p in divisor.points
    ]


def divisor_from_payload(fam: CurveFamily, data: Sequence[Sequence[float]]) -> Divisor:
    points = [CurvePoint(complex(xr, xi), complex(yr, yi)) for xr, xi, yr, yi in data]
    return make_divisor(fam, points)


# -- numeric coefficient grids -----------------------------------------------


def _grid_caps(fam: CurveFamily) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    # caps[l][j] = max((2g + l - j s) // n, -1), and the read-only mask
    # above[l, j, i] = i > caps[l][j]; both worked out once per shape
    return _shape_caps(fam.n, fam.s, fam.genus, second_kind_count(fam))


@lru_cache(maxsize=None)
def _shape_caps(n: int, s: int, genus: int, count: int):
    caps = [[max((2 * genus + l - j * s) // n, -1) for j in range(count)] for l in range(count)]
    above = np.arange(1 + max(map(max, caps))) > np.array(caps)[:, :, None]
    above.flags.writeable = False
    return tuple(map(tuple, caps)), above


@lru_cache(maxsize=None)
def _shape_rows(n: int, s: int):
    # the exponents j, i of the first g + c monomials, the construction
    # table's columns, and the scatter rho[cells] = coeffs[entries] that puts
    # coeffs[k, l] at rho[l, j[k], i[k]] for k <= g + l; read-only, once per
    # shape, as the monomials depend on (n, s) alone
    fam = make_family(n, s, {})
    g = fam.genus
    j, i = np.array([(m.j, m.i) for m in fam.monomial_basis(g + second_kind_count(fam))]).T
    l, k = np.array([(l, k) for l in range(len(j) - g) for k in range(g + l + 1)]).T
    cells, entries = (l, j[k], i[k]), (k, l)
    for array in (j, i, *cells, k):
        array.flags.writeable = False
    return j, i, cells, entries


@dataclass(frozen=True, eq=False)
class NumericRSystem:
    """Coefficient grid rho[l][j](x) of the functions R_{2g+l}, read-only.

    ``rho[l, j, i]`` is the coefficient of x^i y^j in the weight-(2g+l)
    function: one complex array of shape (c, c, d), with c the level count
    ``second_kind_count`` and d - 1 the largest cap.  Cell (l, j) is zero
    above its cap max((2g + l - j s) // n, -1); a cell with cap -1 is zero
    throughout.  A grid that is ragged, of another shape, or nonzero above
    a cap raises MalformedGrid.

    The caps hold det at degree g.  A term of det multiplies the cells
    (l, sigma(l)) of a permutation sigma; it is zero unless every such cell
    is live, and then its degree is at most
    sum_l (2g + l - sigma(l) s) // n <= (sum_l (2g + l - sigma(l) s)) // n.
    As sigma permutes 0..c-1 and 2g = (n - 1)(s - 1), the inner sum is
    2gc - (s - 1) c (c - 1) / 2 = (s - 1) c (2n - 1 - c) / 2, and
    c (2n - 1 - c) <= n (n - 1) for every integer c, with equality at
    c = n - 1 and c = n.  So the sum is at most n g and the degree at most g.
    """

    fam: CurveFamily
    rho: np.ndarray

    def __post_init__(self):
        caps, above = _grid_caps(self.fam)
        try:
            rho = np.array(self.rho, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise MalformedGrid(f"grid is not a complex array: {exc}") from None
        if rho.shape != above.shape:
            raise MalformedGrid(f"grid has shape {rho.shape}, expected {above.shape}")
        if rho[above].any():
            l, j = np.argwhere((rho != 0) & above)[0, :2]
            degree, cap = np.flatnonzero(rho[l, j])[-1], caps[l][j]
            raise MalformedGrid(f"rho[{l}][{j}] has degree {degree}, above its bound {cap}")
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    def eval_grid(self, x) -> np.ndarray:
        """rho[l][j](x) as a (c, c) array; an array of x stacks them.

        One product of the powers x^0 .. x^(d-1) with the grid read as a
        (c c, d) view.
        """
        c, _, d = self.rho.shape
        x = np.asarray(x, dtype=complex)
        grid = x[..., None] ** np.arange(d) @ self.rho.reshape(c * c, d).T
        return grid.reshape(x.shape + (c, c))

    def residuals(self, xs: Sequence[complex], ys) -> np.ndarray:
        """Largest relative row value at each point (xs[k], ys[k][m]), NaN if any is.

        Row l's value sum_j rho[l][j](x) y^j is read relative to
        sum |c| max(1, |x|)^i max(1, |y|)^j over its coefficients c of x^i y^j,
        the size of the terms that cancel in it.  The values read the grid
        through ``eval_grid``; the sizes are one product of the powers of
        max(1, |x|) with |rho|.  Returns shape (len(xs), m).
        """
        xs = np.asarray(xs, dtype=complex)
        ys = np.asarray(ys, dtype=complex)
        c, _, d = self.rho.shape
        powers = np.arange(c)[:, None]
        # (points, rows, m): each row's value at each candidate y
        values = self.eval_grid(xs) @ ys[:, None] ** powers
        sizes = np.maximum(1.0, np.abs(xs))[:, None] ** np.arange(d) @ np.abs(
            self.rho.reshape(c * c, d)).T
        scale = sizes.reshape(-1, c, c) @ np.maximum(1.0, np.abs(ys))[:, None] ** powers
        return np.max(np.abs(values) / np.maximum(scale, 1e-300), axis=1)


def rfunctions_from_divisor(
    fam: CurveFamily,
    divisor: Divisor,
    seed: int = 0,
) -> NumericRSystem:
    """The functions R_{2g+l} vanishing on the divisor, from its points alone.

    The null space of the divisor's g x (g + c) table of the first g + c
    monomials is L((2g + c - 1)inf - D), of dimension c when D is non-special.
    One RQ step turns an orthonormal basis of it into one whose column l ends
    at monomial g + l, the pole order 2g + l: that column is row l.  Any such
    basis gives the same det up to a constant, so the same divisor.  ``seed``
    has no effect; it is accepted so that existing callers keep working.
    """
    g = fam.genus
    if len(divisor) != g:
        raise ValueError(f"need a degree-{g} divisor, got {len(divisor)} points")
    if divisor.special:
        raise SpecialDivisor("divisor contains a full fiber over one x")
    # a Divisor can be built by hand, past make_divisor's checks
    require_finite_points(divisor.points)
    j, i, cells, entries = _shape_rows(fam.n, fam.s)
    x, y = np.array([(p.x, p.y) for p in divisor.points], dtype=complex).T
    table = y[:, None] ** j * x[:, None] ** i
    _, sv, vh = np.linalg.svd(table)
    above(sv[g - 1], INTERPOLATION_TOL * sv[0], DegenerateDeterminant,
          "interpolation matrix is rank deficient: g-th sv")
    null = vh[g:].conj().T
    # RQ of the null space's bottom c x c block, as QR of its row-reversed
    # conjugate transpose: null @ q[:, ::-1] is upper triangular there
    q, _ = np.linalg.qr(null[g:][::-1].conj().T)
    coeffs = null @ q[:, ::-1]
    rho = np.zeros(_grid_caps(fam)[1].shape, dtype=complex)
    rho[cells] = coeffs[entries]
    return NumericRSystem(fam, rho)


@dataclass(frozen=True, eq=False)
class CompiledSystem:
    """A derived system at one curve's lambda, as one complex array.

    ``matrix`` has shape (c, c, d, 1 + len(symbols)): row matrix[l, j, i] is
    the grid's coefficient rho[l, j, i], affine in the symbols.  Its column 0
    is the constant and column 1 + k multiplies ``symbols[k]``.  The rows of
    the cells above their caps are zero.
    """

    fam: CurveFamily
    symbols: tuple[AbelianSymbol, ...]
    matrix: np.ndarray

    def evaluate(self, values: np.ndarray) -> NumericRSystem:
        """The grid rho = matrix @ [1, values...], values[k] that of symbols[k]."""
        values = np.asarray(values, dtype=complex)
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise NonFiniteValue(
                f"{self.symbols[bad[0]].to_text()} = {values[bad[0]]} is not finite"
            )
        return NumericRSystem(self.fam, self.matrix @ np.concatenate([[1.0], values]))


def _system_symbols(system: InversionSystem) -> tuple[AbelianSymbol, ...]:
    """The symbols a derived system reads, in the order compile_system keeps."""
    return tuple(sorted(
        {sym for fn in system.r_functions for poly in fn.terms.values() for sym in poly.terms},
        key=AbelianSymbol.sort_key,
    ))


def compile_system(system: InversionSystem, fam: CurveFamily) -> CompiledSystem:
    """Substitute fam's lambda into a derived system of fam's shape, once.

    The system may be derived with lambda symbolic (``fam.symbolic_twin()``)
    or at fam's own lambda.
    """
    if fam.family_label() != system.fam.family_label():
        raise ValueError(
            f"system of {system.fam.family_label()} cannot be evaluated on "
            f"{fam.family_label()}"
        )
    lam = fam.numeric_lambda()
    symbols = _system_symbols(system)
    column = {sym: 1 + k for k, sym in enumerate(symbols)}
    matrix = np.zeros(_grid_caps(fam)[1].shape + (1 + len(symbols),), dtype=complex)
    for fn in system.r_functions:
        for mono, coeff in fn.terms.items():
            row = matrix[fn.level - 1, mono.j, mono.i]
            row[0] += coeff.constant.eval_numeric(lam)
            for sym, c in coeff.terms.items():
                row[column[sym]] += c.eval_numeric(lam)
    matrix.flags.writeable = False
    return CompiledSystem(fam, symbols, matrix)


# -- elimination and recovery ------------------------------------------------


def _poly_det(cells, row: int, cols: tuple[int, ...], minors: dict) -> np.ndarray:
    # det of the rows row.. of cells over the columns cols, by its first row;
    # an empty cell is skipped.  row is len(cells) - len(cols), so ``minors``
    # keeps each det by cols alone, and each is expanded once per call
    if len(cols) == 1:
        return cells[row][cols[0]]
    if cols in minors:
        return minors[cols]
    total = np.zeros(1, dtype=complex)
    for k, j in enumerate(cols):
        entry = cells[row][j]
        if len(entry) == 0:
            continue
        minor = _poly_det(cells, row + 1, cols[:k] + cols[k + 1 :], minors)
        if len(minor) == 0:
            continue
        term = np.convolve(entry, minor) * (-1) ** k
        if len(term) > len(total):
            term[: len(total)] += total
            total = term
        else:
            total[: len(term)] += term
    minors[cols] = total
    return total


def chi_polynomial(sys: NumericRSystem) -> np.ndarray:
    """det of the y-coefficient grid: degree exactly g, ascending coeffs.

    Each cell enters det cut at its cap, empty at cap -1, so det has at most
    g + 1 coefficients (see NumericRSystem) and no term above degree g to check.
    """
    g = sys.fam.genus
    caps, _ = _grid_caps(sys.fam)
    cells = [[c[: cap + 1] for c, cap in zip(*rows)] for rows in zip(sys.rho, caps)]
    det = _poly_det(cells, 0, tuple(range(len(caps))), {})
    if not np.all(np.isfinite(det)):
        raise RootFindingFailure("coefficient grid contains non-finite entries")
    chi = np.zeros(g + 1, dtype=complex)
    chi[: len(det)] = det
    above(abs(chi[g]), COLLAPSE_TOL * np.max(np.abs(chi)), DegreeCollapse,
          "divisor is special or nearly so: leading coefficient")
    return chi


def solve_divisor(sys: NumericRSystem) -> Divisor:
    """The backward direction: x from the roots of chi, y from the fiber over each.

    The roots of chi are the eigenvalues of the companion matrix that
    ``np.roots`` builds for it, solved directly, so they keep np.roots' bits.
    Every root's fiber is lifted in one batch and ranked by the grid's
    relative residual there (``NumericRSystem.residuals``), from one argsort.
    A root of multiplicity mu keeps its mu best points.  They must fit
    within FIBER_RESIDUAL_TOL and the next candidate must not, or
    NullSpaceDimensionError names the root.  As mu <= n, the divisor is
    special exactly when some root keeps its whole fiber.
    """
    fam = sys.fam
    chi = chi_polynomial(sys)
    # chi is finite with |chi_k / chi_g| < 1 / COLLAPSE_TOL, so its roots are
    # finite.  As np.roots does, the monic p's zero low coefficients are roots
    # at 0 and drop out of the companion, whose first row is -p[1:] / p[0]
    p = chi[::-1] / chi[-1]
    zeros = len(p) - 1 - np.flatnonzero(p)[-1]
    p = p[: len(p) - zeros]
    companion = np.eye(len(p) - 1, k=-1, dtype=complex)
    companion[:1] = -p[1:] / p[0]
    roots = np.concatenate([np.linalg.eigvals(companion), np.zeros(zeros, dtype=complex)]).tolist()
    clusters = _clusters(roots)
    # times 1 / len, as numpy divides a complex scalar by len, bit for bit
    xs = [sum(roots[i] for i in c) * (1 / len(c)) for c in clusters]
    mus = np.array([len(c) for c in clusters])
    ys = fam.fiber_roots(xs)
    residuals = sys.residuals(xs, ys)
    order = np.argsort(residuals, axis=1)  # a NaN sorts last
    # candidates past the fiber's n points never fit
    ranked = np.full((len(xs), fam.n + mus.max()), np.inf)
    ranked[:, : fam.n] = np.take_along_axis(residuals, order, axis=1)
    rows = np.arange(len(xs))
    kept, rival = ranked[rows, mus - 1], ranked[rows, mus]
    # the root with the least headroom; argmax and argmin pick a NaN first
    k = np.argmax(kept)
    at_most(kept[k], FIBER_RESIDUAL_TOL, NullSpaceDimensionError,
            lambda: f"no fiber point fits the grid over x={xs[k]:.6g} at multiplicity {mus[k]}: "
            "relative residual")
    k = np.argmin(rival)
    above(rival[k], FIBER_RESIDUAL_TOL, NullSpaceDimensionError,
          lambda: f"fiber over x={xs[k]:.6g} is ambiguous: next candidate's relative residual")
    points = [
        CurvePoint(x, fiber[i])
        for x, fiber, mu, best in zip(xs, ys.tolist(), mus.tolist(), order.tolist())
        for i in best[:mu]
    ]
    return Divisor(tuple(points), bool(np.any(mus == fam.n)))
