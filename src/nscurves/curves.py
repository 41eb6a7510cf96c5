"""Plane (n,s) curve families.

A family is the affine curve

    f(x, y) = -y^n + x^s + sum lambda_k y^j x^i = 0,    gcd(n, s) = 1, n < s,

with one smooth place at infinity.  Under the grading wgt x = n, wgt y = s,
wgt lambda_k = k every term of f has weight ns, and the subscript of each
lambda is pinned by its monomial: k = ns - js - in.  The canonical shape
restricts to j <= n-2, i <= s-2; the extended shape admits every monomial of
positive lambda-weight with j <= n-1, which covers curves carrying y^(n-1)
terms.

The gap sequence of the point at infinity is the complement of the numerical
semigroup <n, s>; monomials y^j x^i with 0 <= j < n, ordered by weight
js + in, realize exactly the non-gaps as pole orders.
"""
from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

from .algebra import WeightedPoly, as_fraction, product_text, signed_sum_text
from .errors import (
    BranchCollision,
    CoordinateOverflow,
    InvalidLambdaIndex,
    NotCoprime,
    RootFindingFailure,
    SymbolicLambda,
    above,
    at_most,
)

# relative: a fiber root's largest |f|, discriminant coefficients read as zero;
# check_nondegenerate's default least distance between discriminant roots
ROOT_RESIDUAL_TOL = 1e-6
DISCRIMINANT_TRIM = 1e-10
SPACING_TOL = 1e-8

LambdaValue = Union[WeightedPoly, complex]


@dataclass(frozen=True)
class Monomial:
    """y^j x^i with its Sato weight js + in and label = weight - (2g-1)."""

    j: int
    i: int
    sato_weight: int
    label: int

    def as_text(self) -> str:
        parts = []
        if self.j:
            parts.append("y" + (f"^{self.j}" if self.j > 1 else ""))
        if self.i:
            parts.append("x" + (f"^{self.i}" if self.i > 1 else ""))
        return "*".join(parts) if parts else "1"

    def as_latex(self) -> str:
        parts = []
        if self.j:
            parts.append("y" + (f"^{{{self.j}}}" if self.j > 1 else ""))
        if self.i:
            parts.append("x" + (f"^{{{self.i}}}" if self.i > 1 else ""))
        return " ".join(parts) if parts else "1"


@dataclass(frozen=True)
class CurvePoint:
    x: complex
    y: complex


class EntireRationalFn:
    """A finite sum  sum c_M * M  of basis monomials with exact coefficients.

    These are regular away from infinity; the weight, when every term agrees,
    is max pole order at infinity.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Mapping[Monomial, WeightedPoly]):
        self.coefficients = {
            m: c for m, c in coefficients.items() if not c.is_zero()
        }

    @property
    def weight(self) -> int | None:
        weights = set()
        for m, c in self.coefficients.items():
            cw = c.weight
            if cw is None:
                return None
            weights.add(m.sato_weight + cw)
        if len(weights) == 1:
            return weights.pop()
        return None

    def sorted_terms(self) -> list[tuple[Monomial, WeightedPoly]]:
        """Terms by descending monomial weight: leading pole first."""
        return sorted(
            self.coefficients.items(), key=lambda mc: -mc[0].sato_weight
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntireRationalFn):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(frozenset(self.coefficients.items()))

    def as_text(self) -> str:
        return signed_sum_text(
            [
                product_text(c.to_text(), m.as_text())
                for m, c in self.sorted_terms()
            ]
        )

    def __repr__(self) -> str:
        return f"EntireRationalFn({self.as_text()})"


class CurveFamily:
    """An (n,s) curve with exact (possibly symbolic) or numeric coefficients."""

    __slots__ = (
        "n", "s", "extended", "lam", "genus", "gaps", "_index_map", "_monomials", "_f_table",
        "_f_columns",
    )

    def __init__(
        self,
        n: int,
        s: int,
        lam: Mapping[int, LambdaValue],
        extended: bool,
        index_map: Mapping[int, tuple[int, int]],
    ):
        if n < 2 or s <= n:
            raise NotCoprime(f"need 2 <= n < s, got n={n}, s={s}")
        if math.gcd(n, s) != 1:
            raise NotCoprime(f"n={n} and s={s} share a factor")
        self.n = n
        self.s = s
        self.extended = extended
        self.lam = dict(lam)
        self._index_map = dict(index_map)
        self.genus = (n - 1) * (s - 1) // 2
        self.gaps = _gap_sequence(n, s)
        self._monomials: list[Monomial] = []
        self._f_table: np.ndarray | None = None
        self._f_columns: list[list[complex]] = []

    # -- basis bookkeeping --

    def monomial_of_weight(self, w: int) -> Monomial | None:
        """The unique y^j x^i (0 <= j < n) with js + in = w, if it exists."""
        if w < 0:
            return None
        s_inv = pow(self.s, -1, self.n)
        j = (w * s_inv) % self.n
        i, rem = divmod(w - j * self.s, self.n)
        if rem or i < 0:
            return None
        return Monomial(j, i, w, w - (2 * self.genus - 1))

    def monomial_of_label(self, label: int) -> Monomial:
        mono = self.monomial_of_weight(label + 2 * self.genus - 1)
        if mono is None:
            raise ValueError(f"no monomial carries label {label}")
        return mono

    def monomial_basis(self, count: int) -> list[Monomial]:
        """The first ``count`` monomials ordered by increasing pole order."""
        w = self._monomials[-1].sato_weight + 1 if self._monomials else 0
        while len(self._monomials) < count:
            mono = self.monomial_of_weight(w)
            if mono is not None:
                self._monomials.append(mono)
            w += 1
        return self._monomials[:count]

    # -- coefficient access --

    def lambda_terms(self) -> list[tuple[int, int, int, LambdaValue]]:
        """(k, j, i, value) for every lambda term actually present."""
        out = []
        for k in sorted(self.lam, reverse=True):
            j, i = self._index_map[k]
            out.append((k, j, i, self.lam[k]))
        return out

    def exact_lambda(self) -> dict[int, WeightedPoly]:
        vals = {}
        for k, v in self.lam.items():
            if not isinstance(v, WeightedPoly):
                raise SymbolicLambda(
                    f"lambda_{k} = {v!r} is a float; exact arithmetic needs rationals"
                )
            vals[k] = v
        return vals

    def numeric_lambda(self) -> dict[int, complex]:
        vals = {}
        for k, v in self.lam.items():
            if isinstance(v, WeightedPoly):
                if not v.is_constant():
                    raise SymbolicLambda(
                        f"lambda_{k} is symbolic; numeric evaluation impossible"
                    )
                try:
                    vals[k] = complex(v.constant_value())
                except OverflowError:
                    raise ValueError(f"lambda_{k} is a rational outside double range") from None
            else:
                vals[k] = complex(v)
        return vals

    def symbolic_twin(self) -> "CurveFamily":
        """The same (n, s, shape) with every admissible lambda left symbolic."""
        return make_family(self.n, self.s, "sym", extended=self.extended)

    # -- numeric curve evaluation --

    def _table(self) -> np.ndarray:
        # the read-only table holds x^i's coefficient in y^(n-r) at [i, r];
        # built on first use, as ``lam`` is never reassigned, with its columns
        # as Python lists from their highest nonzero power of x down
        if self._f_table is None:
            table = np.zeros((self.s + 1, self.n + 1), dtype=complex)
            table[0, 0], table[self.s, self.n] = -1.0, 1.0
            for k, value in self.numeric_lambda().items():
                j, i = self._index_map[k]
                table[i, self.n - j] = value
            table.flags.writeable = False
            columns = [np.trim_zeros(c, "f").tolist() for c in table.T[:, ::-1]]
            self._f_table, self._f_columns = table, columns
        return self._f_table

    def _rows(self, xs) -> np.ndarray:
        # y_poly of each x; einsum adds up each row on its own, so a row's
        # bits do not depend on its batch
        table = self._table()
        xs = np.asarray(xs, dtype=complex).reshape(-1)
        try:
            with np.errstate(over="raise"):
                powers = xs[:, None] ** np.arange(self.s + 1)
        except FloatingPointError:
            raise CoordinateOverflow(f"x = {xs.tolist()} overflows x^{self.s}") from None
        return np.einsum("bk,km->bm", powers, table)

    def y_poly(self, x: complex) -> np.ndarray:
        """Coefficients (highest first) of f(x, .) as a polynomial in y."""
        return self._rows([x])[0]

    def eval_f(self, x: complex, y: complex) -> complex:
        """f(x, y) at one point, by Horner in Python on the table's columns."""
        self._table()
        value = 0j
        for column in self._f_columns:
            coeff = 0j
            for c in column:
                coeff = coeff * x + c
            value = value * y + coeff
        if not cmath.isfinite(value) and cmath.isfinite(x) and cmath.isfinite(y):
            raise CoordinateOverflow(f"f({x}, {y}) overflows double precision")
        return complex(value)

    def fiber_roots(self, xs: Sequence[complex]) -> np.ndarray:
        """The n roots y over each x, shape (len(xs), n), each row sorted by (re y, im y).

        One eigensolve takes the stacked companion matrices of every x; each
        row equals the sorted ``np.roots(self.y_poly(x))`` bit for bit.  One
        stable complex sort orders every row as ``np.lexsort((im, re))``
        would, and one product of the roots' powers with the rows reads f at
        every root for the residual check.
        """
        n = self.n
        if len(xs) == 0:
            return np.zeros((0, n), dtype=complex)
        xs = np.asarray(xs, dtype=complex).reshape(-1)
        if not np.isfinite(xs).all():
            raise ValueError(f"fiber x must be finite, not {xs.tolist()}")
        polys = self._rows(xs)
        companion = np.zeros((len(polys), n, n), dtype=complex)
        companion[:, 0] = -polys[:, 1:] / polys[:, :1]
        companion.reshape(-1, n * n)[:, n :: n + 1] = 1.0  # the subdiagonal
        roots = np.sort(np.linalg.eigvals(companion), axis=-1, kind="stable")
        try:
            # f at each root and its limit, about the row's size squared
            with np.errstate(over="raise"):
                value = (roots[:, :, None] ** np.arange(n, -1, -1) @ polys[:, :, None])[:, :, 0]
                scale = np.abs(polys).max(axis=1, initial=1.0)
                limit = ROOT_RESIDUAL_TOL * scale[:, None] * np.maximum(1.0, np.abs(roots)) ** n
        except FloatingPointError:
            raise CoordinateOverflow(f"the fibers over x = {xs.tolist()} overflow") from None
        # the root with the least headroom; argmax picks a NaN first
        row, col = divmod(int(np.argmax(np.abs(value) - limit)), n)
        at_most(abs(value[row, col]), limit[row, col], RootFindingFailure,
                lambda: f"fiber root at x={xs[row]} fails the residual check: |f|")
        return roots

    def lift_x_to_points(self, x: complex) -> list[CurvePoint]:
        """All n points of the fiber over x, sorted for determinism."""
        return [CurvePoint(complex(x), y) for y in self.fiber_roots([x])[0].tolist()]

    # -- display --

    def family_label(self) -> str:
        return f"({self.n},{self.s})" + ("+" if self.extended else "")

    def f_text(self) -> str:
        parts = [f"-y^{self.n}", f"x^{self.s}"]
        for k, j, i, v in self.lambda_terms():
            mono = Monomial(j, i, 0, 0).as_text()
            if isinstance(v, WeightedPoly):
                coeff = v.to_text()
            else:
                coeff = repr(v)
            head = coeff if mono == "1" else f"{coeff}*{mono}"
            parts.append(head)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"CurveFamily({self.family_label()}, genus={self.genus})"


def _gap_sequence(n: int, s: int) -> tuple[int, ...]:
    top = (n - 1) * (s - 1)  # 2g; every integer >= 2g is a non-gap
    reachable = [False] * (top + 1)
    for j in range(n):
        base = j * s
        if base > top:
            break
        for w in range(base, top + 1, n):
            reachable[w] = True
    return tuple(w for w in range(1, top) if not reachable[w])


def admissible_indices(n: int, s: int, extended: bool = False) -> dict[int, tuple[int, int]]:
    """Map from admissible lambda subscript k to its monomial (j, i)."""
    out: dict[int, tuple[int, int]] = {}
    j_top = n - 1 if extended else n - 2
    for j in range(j_top + 1):
        i = 0
        while True:
            k = n * s - j * s - i * n
            if k <= 0:
                break
            if extended or i <= s - 2:
                out[k] = (j, i)
            i += 1
    return out


def make_family(
    n: int,
    s: int,
    lam: Union[str, Mapping[int, object]] = "sym",
    extended: bool = False,
) -> CurveFamily:
    """Build a curve family; ``lam`` is "sym" or a map k -> value.

    Values may be exact (int, Fraction, WeightedPoly, or the string "sym")
    or numeric (float, complex).  Subscripts outside the admissible set for
    the chosen shape raise InvalidLambdaIndex.
    """
    index_map = admissible_indices(n, s, extended)
    if lam == "sym":
        values: dict[int, LambdaValue] = {k: WeightedPoly.gen(k) for k in index_map}
    else:
        values = {}
        for key, raw in dict(lam).items():
            k = int(key)
            if k not in index_map:
                raise InvalidLambdaIndex(
                    f"lambda_{k} is not admissible for the "
                    f"{'extended ' if extended else ''}({n},{s}) shape"
                )
            values[k] = _coerce_lambda_value(k, raw)
    return CurveFamily(n, s, values, extended, index_map)


def _coerce_lambda_value(k: int, raw: object) -> LambdaValue:
    if raw == "sym":
        return WeightedPoly.gen(k)
    if isinstance(raw, WeightedPoly):
        return raw
    if isinstance(raw, (int, Fraction)):
        return WeightedPoly.const(as_fraction(raw))
    if isinstance(raw, (float, complex)):
        if not np.isfinite(raw):
            raise ValueError(f"lambda_{k} = {raw!r} is not finite")
        return complex(raw)
    if isinstance(raw, str):
        return WeightedPoly.const(Fraction(raw))
    raise TypeError(f"cannot read lambda_{k} value {raw!r}")


# -- curve description files --

_LINE = re.compile(r"^\s*([A-Za-z_.0-9]+)\s*=\s*(.+?)\s*$")
_SWITCH = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def family_from_text(text: str) -> CurveFamily:
    """Parse the key=value curve format (n, s, extended, lambda.k lines).

    Each key may appear once; extended is one of 1/true/yes or 0/false/no.
    A line that cannot be read raises a ValueError that names it.
    """
    n = s = None
    extended = False
    lam: dict[int, object] = {}
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0]
        if not body.strip():
            continue
        try:
            match = _LINE.match(body)
            if not match:
                raise ValueError("expected key = value")
            key, value = match.group(1), match.group(2)
            if key.startswith("lambda."):
                k = _integer(f"the index of {key}", key.split(".", 1)[1])
                key = f"lambda.{k}"
            if key in seen:
                raise ValueError(f"{key} is set twice")
            seen.add(key)
            if key == "n":
                n = _integer("n", value)
            elif key == "s":
                s = _integer("s", value)
            elif key == "extended":
                if value.lower() not in _SWITCH:
                    raise ValueError(f"extended = {value!r} is not true or false")
                extended = _SWITCH[value.lower()]
            elif key.startswith("lambda."):
                lam[k] = _lambda_value(key, value)
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if n is None or s is None:
        raise ValueError("curve description must set both n and s")
    return make_family(n, s, lam, extended=extended)


def _integer(what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, not {text!r}") from None


def _lambda_value(key: str, value: str) -> object:
    """sym, a Fraction, or else a complex; ValueError if it is none of these."""
    if value == "sym":
        return "sym"
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{key} = {value} divides by zero") from None
    except ValueError:
        try:
            return complex(value)
        except ValueError:
            raise ValueError(f"{key} = {value!r} is not a number") from None


def family_to_text(fam: CurveFamily) -> str:
    lines = [f"n = {fam.n}", f"s = {fam.s}"]
    if fam.extended:
        lines.append("extended = true")
    for k in sorted(fam.lam):
        v = fam.lam[k]
        if isinstance(v, WeightedPoly):
            if v == WeightedPoly.gen(k):
                lines.append(f"lambda.{k} = sym")
            else:
                lines.append(f"lambda.{k} = {v.constant_value()}")
        else:
            value = v if v.imag else v.real
            lines.append(f"lambda.{k} = {value!r}")
    return "\n".join(lines) + "\n"


# -- non-degeneracy ---------------------------------------------------------

def discriminant_roots(fam: CurveFamily) -> np.ndarray:
    """Roots in x of the discriminant of f(x, .), for numeric families.

    The resultant of f and df/dy in y is sampled on a circle and its
    coefficients recovered by an inverse DFT, taken by one FFT; exact
    interpolation since the degree bound (2n-1)s is respected.
    """
    count = (2 * fam.n - 1) * fam.s + 1
    radius = 1.25
    nodes = radius * np.exp(2j * np.pi * np.arange(count) / count)
    coeffs = np.fft.fft(_sylvester_dets(fam, nodes)) / count / radius ** np.arange(count)
    norm = np.max(np.abs(coeffs))
    above(norm, 0.0, BranchCollision, "discriminant vanishes identically: largest |c|")
    kept = np.where(np.abs(coeffs) > DISCRIMINANT_TRIM * norm, coeffs, 0)
    return np.roots(np.trim_zeros(kept, "b")[::-1])


def _closest_pair(roots: np.ndarray) -> tuple[int, int]:
    """Indices a < b of the two nearest roots; a NaN distance counts as nearest."""
    dist = np.abs(roots[:, None] - roots)
    np.fill_diagonal(dist, np.inf)
    return divmod(int(np.argmin(dist)), len(roots))


def _sylvester_dets(fam: CurveFamily, xs: np.ndarray) -> np.ndarray:
    # the resultant of f(x, .) and its y-derivative at each x, one stacked det
    n = fam.n
    p = fam._rows(xs)
    q = p[:, :-1] * np.arange(n, 0, -1)  # np.polyder of each row
    mat = np.zeros((len(xs), 2 * n - 1, 2 * n - 1), dtype=complex)
    for r in range(n - 1):
        mat[:, r, r : r + n + 1] = p
    for r in range(n):
        mat[:, n - 1 + r, r : r + n] = q
    return np.linalg.det(mat)


def check_nondegenerate(fam: CurveFamily, tol: float = SPACING_TOL) -> float:
    """Smallest spacing between discriminant roots; raises if below tol."""
    roots = discriminant_roots(fam)
    if len(roots) < 2:
        return math.inf
    a, b = _closest_pair(roots)
    spacing = float(abs(roots[a] - roots[b]))
    above(spacing, tol, BranchCollision, "degenerate curve: discriminant root spacing")
    return spacing
