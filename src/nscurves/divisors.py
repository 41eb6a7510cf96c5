"""Divisors on a family and the two constructive directions of inversion.

Forward: a non-special degree-g divisor determines entire rational
functions vanishing on it, one per pole weight 2g..2g+count-1, through an
interpolation determinant.  Backward: the coefficient grid of those
functions determines the divisor again, by eliminating y into a degree-g
polynomial in x and keeping, over each of its roots, the points of the
curve's fiber that the grid vanishes on.
"""
import cmath
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .abelian import AbelianSymbol, InversionSystem
from .curves import CurveFamily, CurvePoint
from .errors import (
    CoordinateOverflow,
    DegenerateDeterminant,
    DegreeCollapse,
    MalformedGrid,
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
# det's coefficients above degree g, chi's leading coefficient
INTERPOLATION_TOL = 1e-10
EXCESS_TOL = 1e-9
COLLAPSE_TOL = 1e-10
# relative, as NumericRSystem.residuals reads it: over a root of chi of
# multiplicity mu, the mu kept fiber points must fit the grid within it and
# the next candidate must not, or the grid cannot tell them apart
FIBER_RESIDUAL_TOL = 1e-7


# -- divisors ----------------------------------------------------------------


@dataclass(frozen=True)
class Divisor:
    """A degree-g tuple of curve points; special when some fiber lies in it."""

    points: tuple[CurvePoint, ...]
    special: bool

    def __len__(self) -> int:
        return len(self.points)


def _fiber_matches(group: list[CurvePoint], fiber: list[CurvePoint]) -> bool:
    # does the group's y multiset exhaust the fiber over its x?
    left = [p.y for p in group]
    for y in (p.y for p in fiber):
        limit = FIBER_MATCH_TOL * max(1.0, abs(y))
        hit = next((i for i, c in enumerate(left) if abs(c - y) <= limit), None)
        if hit is None:
            return False
        left.pop(hit)
    return True


def _clusters(xs: Sequence[complex]) -> list[list[int]]:
    """Indices of xs taken as one x, in order of (re x, im x).

    Each x joins the first cluster whose running mean lies within
    CLUSTER_TOL of it, relative to the mean's size.
    """
    clusters: list[list[int]] = []
    totals: list[complex] = []  # each cluster's sum of x
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


def _is_special(fam: CurveFamily, points: Sequence[CurvePoint]) -> bool:
    """Do the points over some one x exhaust the fiber there?"""
    full = [c for c in _clusters([p.x for p in points]) if len(c) >= fam.n]
    groups = [[points[i] for i in c] for c in full]
    fibers = fam.lift_fibers([sum(p.x for p in g) / len(g) for g in groups])
    return any(_fiber_matches(g, f) for g, f in zip(groups, fibers))


def _worst_residual(fam: CurveFamily, points: Sequence[CurvePoint]) -> float:
    """The points' largest |f| / (max(1, |x|)^s + max(1, |y|)^n), NaN if any is."""
    worst = 0.0
    for p in points:
        try:
            scale = max(1.0, abs(p.x)) ** fam.s + max(1.0, abs(p.y)) ** fam.n
        except OverflowError:
            raise CoordinateOverflow(f"{p} overflows x^{fam.s} or y^{fam.n}") from None
        worst = float(np.maximum(worst, abs(fam.eval_f(p.x, p.y)) / scale))  # keeps NaN
    return worst


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
    draws = []
    for _ in range(count):
        x = complex(rng.normal(scale=scale), rng.normal(scale=scale))
        draws.append((x, int(rng.integers(fam.n))))
    fibers = fam.lift_fibers([x for x, _ in draws])
    return [fiber[sheet] for fiber, (_, sheet) in zip(fibers, draws)]


def sample_point(
    fam: CurveFamily, rng: np.random.Generator, scale: float = 1.0
) -> CurvePoint:
    return sample_points(fam, rng, 1, scale)[0]


def random_divisor(
    fam: CurveFamily, rng: np.random.Generator, scale: float = 1.0
) -> Divisor:
    """A generic non-special divisor; redraws on the measure-zero failures."""
    for _ in range(64):
        pts = sample_points(fam, rng, fam.genus, scale)
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


@dataclass
class NumericRSystem:
    """Coefficient grid rho[l][j](x) of the functions R_{2g+l}.

    Row l is the weight-(2g+l) function, column j the polynomial multiplying
    y^j, stored as ascending complex coefficient arrays.  Degrees obey
    deg rho[l][j] <= (2g + l - j s) / n, which caps det at degree g.
    """

    fam: CurveFamily
    rho: list[list[np.ndarray]]
    # eval_grid's Horner table, built on first use: (degree + 1, rows,
    # columns), highest power first, zero-padded
    _table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        count = second_kind_count(self.fam)
        if len(self.rho) != count:
            raise MalformedGrid(f"grid has {len(self.rho)} rows, expected {count}")
        # complex throughout, so det and Horner never mix in a float array
        self.rho = [[np.asarray(c, dtype=complex) for c in row] for row in self.rho]
        bound = 2 * self.fam.genus
        for l, row in enumerate(self.rho):
            if len(row) != count:
                raise MalformedGrid(
                    f"row {l} has {len(row)} columns, expected {count}"
                )
            for j, coeffs in enumerate(row):
                limit = max((bound + l - j * self.fam.s) // self.fam.n, -1)
                if len(coeffs) - 1 > limit:
                    raise MalformedGrid(
                        f"rho[{l}][{j}] has degree {len(coeffs) - 1}, "
                        f"above its bound {limit}"
                    )

    def _horner_table(self) -> np.ndarray:
        if self._table is None:
            depth = max(len(c) for row in self.rho for c in row)
            table = np.zeros((depth, len(self.rho), len(self.rho[0])), dtype=complex)
            for l, row in enumerate(self.rho):
                for j, coeffs in enumerate(row):
                    table[depth - len(coeffs) :, l, j] = coeffs[::-1]
            self._table = table
        return self._table

    def eval_grid(self, x) -> np.ndarray:
        """rho[l][j](x) as a (rows, columns) array; an array of x stacks them."""
        return _horner(self._horner_table(), x)

    def residuals(self, xs: Sequence[complex], ys) -> np.ndarray:
        """Largest relative row value at each point (xs[k], ys[k][m]), NaN if any is.

        Row l's value sum_j rho[l][j](x) y^j is read relative to
        sum |c| max(1, |x|)^i max(1, |y|)^j over its coefficients c of x^i y^j,
        the size of the terms that cancel in it.  Returns shape (len(xs), m).
        """
        xs = np.asarray(xs, dtype=complex)
        ys = np.asarray(ys, dtype=complex)
        powers = np.arange(len(self.rho[0]))[:, None]
        # (points, rows, m): each row's value at each candidate y
        values = self.eval_grid(xs) @ ys[:, None] ** powers
        sizes = _horner(np.abs(self._horner_table()), np.maximum(1.0, np.abs(xs)))
        scale = sizes @ np.maximum(1.0, np.abs(ys))[:, None] ** powers
        return np.max(np.abs(values) / np.maximum(scale, 1e-300), axis=1)


def _horner(table: np.ndarray, x) -> np.ndarray:
    # table: (degree + 1, rows, columns), highest power first; the result is
    # x's shape followed by (rows, columns)
    x = np.asarray(x)[..., None, None]
    out = np.zeros(x.shape[:-2] + table.shape[1:], dtype=table.dtype)
    for layer in table:
        out = out * x + layer
    return out


def _trimmed(coeffs: np.ndarray, floor: float) -> np.ndarray:
    keep = len(coeffs)
    while keep and abs(coeffs[keep - 1]) <= floor:
        keep -= 1
    return np.asarray(coeffs[:keep], dtype=complex)


def _coefficient_row(terms, count: int) -> list[np.ndarray]:
    """Sum of value * x^i y^j over (monomial, value) terms, per power of y.

    Entry j holds the ascending x coefficients of the y^j part, trimmed;
    each coefficient sums its values in the order the terms come.
    """
    row = [np.zeros(0, dtype=complex) for _ in range(count)]
    for mono, value in terms:
        arr = row[mono.j]
        if len(arr) <= mono.i:
            grown = np.zeros(mono.i + 1, dtype=complex)
            grown[: len(arr)] = arr
            row[mono.j] = arr = grown
        arr[mono.i] += value
    return [_trimmed(arr, 0.0) for arr in row]


def rfunctions_from_divisor(
    fam: CurveFamily,
    divisor: Divisor,
    seed: int = 0,
) -> NumericRSystem:
    """Interpolating functions through the divisor, row by row.

    Function l vanishes on the divisor plus l auxiliary points: its
    coefficients span the kernel of the interpolation matrix, so they are
    the interpolation determinant's cofactors up to scale.  The auxiliary
    points come from a generator seeded by `seed`, so repeated runs agree.
    """
    g = fam.genus
    if len(divisor) != g:
        raise ValueError(f"need a degree-{g} divisor, got {len(divisor)} points")
    if divisor.special:
        raise SpecialDivisor("divisor contains a full fiber over one x")
    # a Divisor can be built by hand, past make_divisor's checks
    require_finite_points(divisor.points)
    count = second_kind_count(fam)
    extras = sample_points(fam, np.random.default_rng(seed), count - 1)
    # row l reads the first g + l points and the first g + l + 1 monomials
    points = list(divisor.points) + extras
    monos = fam.monomial_basis(g + count)
    table = np.array(
        [[m.eval(p.x, p.y) for m in monos] for p in points], dtype=complex
    )
    rho: list[list[np.ndarray]] = []
    for l in range(count):
        _, sv, vh = np.linalg.svd(table[: g + l, : g + l + 1])
        above(sv[-1], INTERPOLATION_TOL * sv[0], DegenerateDeterminant,
              f"weight-{2 * g + l} interpolation matrix is rank deficient: least sv")
        # the last right singular vector spans the kernel: the row's function
        coeffs = vh[-1].conj()
        coeffs /= np.max(np.abs(coeffs))
        rho.append(_coefficient_row(zip(monos, coeffs), count))
    return NumericRSystem(fam, rho)


@dataclass(frozen=True, eq=False)
class CompiledSystem:
    """A derived system at one curve's lambda, as one complex matrix.

    Each row of ``matrix`` is the coefficient of one x^i y^j in one level's
    function, affine in the symbols: column 0 is its constant and column
    1 + k multiplies ``symbols[k]``.  rho[l][j] is the slice ``blocks[l][j]``
    of the rows, x^0 first.
    """

    fam: CurveFamily
    symbols: tuple[AbelianSymbol, ...]
    matrix: np.ndarray
    blocks: tuple[tuple[slice, ...], ...]

    def evaluate(self, symbol_values: Mapping[AbelianSymbol, complex]) -> NumericRSystem:
        """The coefficient grid rho = matrix @ [1, symbol values...]."""
        values = np.array([1.0] + [symbol_values[sym] for sym in self.symbols], dtype=complex)
        flat = self.matrix @ values
        rho = [[_trimmed(flat[block], 0.0) for block in row] for row in self.blocks]
        return NumericRSystem(self.fam, rho)


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
    count = second_kind_count(fam)
    # cells[l][j]: power of x -> the terms that add into that coefficient
    cells = [[{} for _ in range(count)] for _ in range(count)]
    for fn in system.r_functions:
        if 1 <= fn.level <= count:
            for mono, coeff in fn.terms.items():
                cells[fn.level - 1][mono.j].setdefault(mono.i, []).append(coeff)
    rows, blocks = [], []
    for level in cells:
        block = []
        for cell in level:
            start = len(rows)
            rows += [cell.get(i, []) for i in range(max(cell, default=-1) + 1)]
            block.append(slice(start, len(rows)))
        blocks.append(tuple(block))
    symbols = tuple(sorted(
        {sym for terms in rows for coeff in terms for sym in coeff.terms},
        key=AbelianSymbol.sort_key,
    ))
    column = {sym: 1 + k for k, sym in enumerate(symbols)}
    matrix = np.zeros((len(rows), 1 + len(symbols)), dtype=complex)
    for r, terms in enumerate(rows):
        for coeff in terms:
            matrix[r, 0] += coeff.constant.eval_numeric(lam)
            for sym, c in coeff.terms.items():
                matrix[r, column[sym]] += c.eval_numeric(lam)
    matrix.flags.writeable = False
    return CompiledSystem(fam, symbols, matrix, tuple(blocks))


# -- elimination and recovery ------------------------------------------------


def _poly_det(grid: list[list[np.ndarray]]) -> np.ndarray:
    size = len(grid)
    if size == 1:
        return grid[0][0]
    total = np.zeros(1, dtype=complex)
    for j in range(size):
        entry = grid[0][j]
        if len(entry) == 0:
            continue
        minor = _poly_det([row[:j] + row[j + 1 :] for row in grid[1:]])
        if len(minor) == 0:
            continue
        term = np.convolve(entry, minor) * (-1) ** j
        if len(term) > len(total):
            term[: len(total)] += total
            total = term
        else:
            total[: len(term)] += term
    return total


def chi_polynomial(sys: NumericRSystem) -> np.ndarray:
    """det of the y-coefficient grid: degree exactly g, ascending coeffs."""
    g = sys.fam.genus
    det = _poly_det(sys.rho)
    if not np.all(np.isfinite(det)):
        raise RootFindingFailure("coefficient grid contains non-finite entries")
    chi = np.zeros(g + 1, dtype=complex)
    chi[: len(det)] = det[: g + 1]
    if len(det) > g + 1:
        at_most(np.max(np.abs(det[g + 1 :])), EXCESS_TOL * np.max(np.abs(det)),
                MalformedGrid, f"det has coefficients above degree {g}: largest")
    above(abs(chi[g]), COLLAPSE_TOL * np.max(np.abs(chi)), DegreeCollapse,
          "divisor is special or nearly so: leading coefficient")
    return chi


def solve_divisor(sys: NumericRSystem) -> Divisor:
    """The backward direction: x from the roots of chi, y from the fiber over each.

    Every root's fiber is lifted in one batch and ranked by the grid's
    relative residual there (``NumericRSystem.residuals``).  A root of
    multiplicity mu keeps its mu best points.  They must fit within
    FIBER_RESIDUAL_TOL and the next candidate must not, or
    NullSpaceDimensionError names the root.  As mu <= n, the divisor is
    special exactly when some root keeps its whole fiber.
    """
    fam = sys.fam
    chi = chi_polynomial(sys)
    # chi is finite with |chi_k / chi_g| < 1 / COLLAPSE_TOL, so its roots are finite
    roots = np.roots(chi[::-1] / chi[-1])
    clusters = _clusters(roots)
    xs = [complex(sum(roots[i] for i in c) / len(c)) for c in clusters]
    mus = np.array([len(c) for c in clusters])
    fibers = fam.lift_fibers(xs)
    residuals = sys.residuals(xs, [[p.y for p in fiber] for fiber in fibers])
    order = np.argsort(residuals, axis=1)  # a NaN sorts last
    # candidates past the fiber's n points never fit
    ranked = np.full((len(xs), fam.n + mus.max()), np.inf)
    ranked[:, : fam.n] = np.sort(residuals, axis=1)
    rows = np.arange(len(xs))
    kept, rival = ranked[rows, mus - 1], ranked[rows, mus]
    # the root with the least headroom; argmax and argmin pick a NaN first
    k = np.argmax(kept)
    at_most(kept[k], FIBER_RESIDUAL_TOL, NullSpaceDimensionError,
            f"no fiber point fits the grid over x={xs[k]:.6g} at multiplicity {mus[k]}: "
            "relative residual")
    k = np.argmin(rival)
    above(rival[k], FIBER_RESIDUAL_TOL, NullSpaceDimensionError,
          f"fiber over x={xs[k]:.6g} is ambiguous: next candidate's relative residual")
    points = [
        fiber[i] for fiber, mu, best in zip(fibers, mus, order) for i in best[:mu]
    ]
    return Divisor(tuple(points), bool(np.any(mus == fam.n)))
