"""Exact coefficient arithmetic: weighted lambda-polynomials and Laurent series.

Everything in the symbolic pipeline is exact, so downstream identity checks
are exact, never approximate.  A polynomial holds its coefficients as Python
int numerators over one shared denominator, the way FLINT stores
``fmpq_poly``, and reduces each result by one gcd; ``fractions.Fraction``
appears only at the boundaries (constructors, ``terms``, ``constant_value``,
``sorted_terms`` and display).  Two types live here:

``WeightedPoly``
    a sparse polynomial in the curve parameters lambda_k.  The grading
    wgt lambda_k = k makes weight bookkeeping automatic: a polynomial is
    homogeneous iff all its terms share one weight, and products add weights.

``LaurentSeries``
    a truncated Laurent series in the local parameter xi with WeightedPoly
    coefficients.  The truncation order is part of the value: coefficients at
    exponents >= ``trunc`` are unknown, coefficients below ``low`` are exactly
    zero.  Operations propagate the provable truncation, and reading past it
    raises ``TruncationTooShallow`` instead of silently returning garbage.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    NonUnitLeadingCoefficient,
    ResidueObstruction,
    TruncationTooShallow,
)

Rat = Union[int, Fraction]

# A term key is a sorted tuple of (subscript, exponent) pairs, all exponents > 0.
# The empty tuple keys the constant term.
TermKey = tuple[tuple[int, int], ...]


def as_fraction(value: Rat) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _term_weight(key: TermKey) -> int:
    return sum(k * e for k, e in key)


def _merge_keys(a: TermKey, b: TermKey) -> TermKey:
    if not a:
        return b
    if not b:
        return a
    exps: dict[int, int] = dict(a)
    for k, e in b:
        exps[k] = exps.get(k, 0) + e
    return tuple(sorted(exps.items()))


class RationalTerms(Mapping):
    """A polynomial's terms read as Fractions; each value is built on lookup."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: dict[TermKey, int], den: int):
        self._nums, self._den = nums, den

    def __getitem__(self, key: TermKey) -> Fraction:
        return Fraction(self._nums[key], self._den)

    def __contains__(self, key: object) -> bool:
        return key in self._nums

    def __iter__(self) -> Iterator[TermKey]:
        return iter(self._nums)

    def __len__(self) -> int:
        return len(self._nums)


class WeightedPoly:
    """Sparse polynomial in the parameters lambda_k with rational coefficients.

    ``nums`` maps each term key to an int numerator over the shared
    denominator ``den``.  The form is canonical, so equality is structural:
    ``den > 0``, ``gcd(den, *nums.values()) == 1``, no numerator is zero, and
    the zero polynomial has ``den == 1``.  Values are never mutated.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms: Mapping[TermKey, Rat] | None = None):
        fracs = {tuple(key): as_fraction(c) for key, c in (terms or {}).items()}
        # the lcm of reduced denominators leaves no factor common to every numerator
        den = lcm(*(q.denominator for q in fracs.values()))
        self.nums = {
            key: q.numerator * (den // q.denominator) for key, q in fracs.items() if q
        }
        self.den = den

    # -- constructors --

    @classmethod
    def const(cls, value: Rat) -> "WeightedPoly":
        q = value if isinstance(value, int) else as_fraction(value)
        return _poly({(): q.numerator} if q else {}, q.denominator)

    @classmethod
    def zero(cls) -> "WeightedPoly":
        return _poly({}, 1)

    @classmethod
    def one(cls) -> "WeightedPoly":
        return _poly({(): 1}, 1)

    @classmethod
    def gen(cls, k: int) -> "WeightedPoly":
        """The generator lambda_k, of weight k."""
        if k <= 0:
            raise ValueError("lambda subscripts are positive")
        return _poly({((k, 1),): 1}, 1)

    # -- predicates and metadata --

    @property
    def terms(self) -> RationalTerms:
        """Term key -> Fraction coefficient, one entry per nonzero term."""
        return RationalTerms(self.nums, self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return not self.nums or (len(self.nums) == 1 and () in self.nums)

    def constant_value(self) -> Fraction:
        """The coefficient of the empty monomial."""
        return Fraction(self.nums.get((), 0), self.den)

    @property
    def weight(self) -> int | None:
        """Common Sato weight of all terms, or None if mixed or zero."""
        weights = {_term_weight(key) for key in self.nums}
        if len(weights) == 1:
            return weights.pop()
        return None

    # -- ring operations --

    def __add__(self, other: "WeightedPoly | Rat") -> "WeightedPoly":
        if not isinstance(other, WeightedPoly):
            other = _coerce_poly(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.nums:
            return self
        da, db = self.den, other.den
        if da == db:
            nums, scale, den = dict(self.nums), 1, da
        else:
            den = lcm(da, db)
            fa, scale = den // da, den // db
            nums = {key: n * fa for key, n in self.nums.items()}
        for key, n in other.nums.items():
            acc = nums.get(key, 0) + n * scale
            if acc:
                nums[key] = acc
            else:
                nums.pop(key, None)
        return _poly(nums, den)

    __radd__ = __add__

    def __neg__(self) -> "WeightedPoly":
        out = _new(WeightedPoly)
        out.nums = {key: -n for key, n in self.nums.items()}
        out.den = self.den
        return out

    def __sub__(self, other: "WeightedPoly | Rat") -> "WeightedPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "WeightedPoly | Rat") -> "WeightedPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "WeightedPoly | Rat") -> "WeightedPoly":
        if not isinstance(other, WeightedPoly):
            other = _coerce_poly(other)
            if other is NotImplemented:
                return NotImplemented
        nums: dict[TermKey, int] = {}
        right = other.nums.items()
        for ka, na in self.nums.items():
            for kb, nb in right:
                key = _merge_keys(ka, kb)
                acc = nums.get(key, 0) + na * nb
                if acc:
                    nums[key] = acc
                else:
                    del nums[key]
        return _poly(nums, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Rat) -> "WeightedPoly":
        q = as_fraction(other)
        if not q:
            raise ZeroDivisionError("division of a WeightedPoly by zero")
        p, r = q.numerator, q.denominator
        if p < 0:
            p, r = -p, -r
        return _poly({key: n * r for key, n in self.nums.items()}, self.den * p)

    def __pow__(self, n: int) -> "WeightedPoly":
        if n < 0:
            raise ValueError("negative power of a WeightedPoly")
        out = WeightedPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = WeightedPoly.const(other)
        if isinstance(other, WeightedPoly):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its rational, so it hashes like it
        if self.is_constant():
            return hash(self.constant_value())
        return hash((frozenset(self.nums.items()), self.den))

    def __bool__(self) -> bool:
        return bool(self.nums)

    # -- evaluation and display --

    def eval_numeric(self, lam: Mapping[int, complex]) -> complex:
        """Substitute numbers for the lambda_k; absent subscripts read as 0."""
        total = 0j
        den = self.den
        for key, n in self.nums.items():
            # int true division rounds correctly, as float(Fraction(n, den)) does
            value = complex(n / den)
            for k, e in key:
                value *= complex(lam.get(k, 0)) ** e
            total += value
        return total

    def sorted_terms(self) -> list[tuple[TermKey, Fraction]]:
        den = self.den
        return [(key, Fraction(n, den)) for key, n in sorted(self.nums.items())]

    def sorted_ratios(self) -> list[tuple[TermKey, int, int]]:
        """(key, numerator, denominator) in lowest terms, as sorted_terms orders them."""
        den = self.den
        out = []
        for key, n in sorted(self.nums.items()):
            g = gcd(n, den)
            out.append((key, n // g, den // g))
        return out

    def __repr__(self) -> str:
        return f"WeightedPoly({self.to_text()})"

    def to_text(self) -> str:
        chunks = []
        for key, coeff in self.sorted_terms():
            factors = "*".join(
                f"l{k}" + (f"^{e}" if e > 1 else "") for k, e in key
            )
            if not factors:
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append(factors)
            elif coeff == -1:
                chunks.append(f"-{factors}")
            else:
                chunks.append(f"{coeff}*{factors}")
        return signed_sum_text(chunks)


_new = object.__new__


def _poly(nums: dict[TermKey, int], den: int) -> WeightedPoly:
    """The canonical WeightedPoly of nums / den, given den > 0 and no zero in nums."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {key: n // g for key, n in nums.items()}
    out = _new(WeightedPoly)
    out.nums = nums
    out.den = den
    return out


def signed_sum_text(chunks: Sequence[str]) -> str:
    """Rendered terms joined by " + ", a leading minus folded into " - "."""
    if not chunks:
        return "0"
    text = chunks[0]
    for chunk in chunks[1:]:
        text += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
    return text


def product_text(coeff: str, factor: str) -> str:
    """coeff*factor, a coefficient of 1 or -1 dropped, a sum parenthesized."""
    if coeff == "1":
        return factor
    if coeff == "-1":
        return f"-{factor}"
    if " " in coeff:
        coeff = f"({coeff})"
    return coeff if factor == "1" else f"{coeff}*{factor}"


def _coerce_poly(value) -> WeightedPoly:
    if isinstance(value, WeightedPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return WeightedPoly.const(value)
    return NotImplemented


ZERO = WeightedPoly.zero()
ONE = WeightedPoly.one()


class LaurentSeries:
    """Truncated Laurent series in xi with WeightedPoly coefficients.

    ``coeffs[t]`` is the coefficient of xi**(low + t); the tuple always spans
    exponents ``low .. trunc - 1``.  Exponents below ``low`` are exactly zero,
    exponents at or above ``trunc`` are unknown.  For a series with no known
    nonzero coefficient, ``low == trunc`` and the tuple is empty.
    """

    __slots__ = ("low", "coeffs", "trunc")

    def __init__(self, low: int, coeffs: Iterable[WeightedPoly | Rat], trunc: int):
        polys = [c if isinstance(c, WeightedPoly) else _require_poly(c) for c in coeffs]
        # normalize: strip known-zero leading coefficients
        start = 0
        while start < len(polys) and polys[start].is_zero():
            start += 1
        if start == len(polys):
            low = trunc
            polys = []
        else:
            low += start
            polys = polys[start:]
        if low + len(polys) != trunc:
            raise ValueError("coefficient span must cover low .. trunc-1")
        self.low = low
        self.coeffs = tuple(polys)
        self.trunc = trunc

    # -- constructors --

    @classmethod
    def zero(cls, trunc: int) -> "LaurentSeries":
        return cls(trunc, (), trunc)

    @classmethod
    def monomial(cls, exp: int, coeff: WeightedPoly | Rat, trunc: int) -> "LaurentSeries":
        if exp >= trunc:
            raise ValueError("monomial exponent must lie below the truncation")
        return cls.from_terms({exp: coeff}, trunc)

    @classmethod
    def one(cls, trunc: int) -> "LaurentSeries":
        return cls.monomial(0, 1, trunc)

    @classmethod
    def from_terms(cls, terms: Mapping[int, WeightedPoly | Rat], trunc: int) -> "LaurentSeries":
        polys = {e: c if isinstance(c, WeightedPoly) else _require_poly(c)
                 for e, c in terms.items()}
        polys = {e: c for e, c in polys.items() if not c.is_zero()}
        if not polys:
            return cls.zero(trunc)
        low = min(polys)
        if max(polys) >= trunc:
            raise ValueError("term exponent at or above the truncation")
        coeffs = [polys.get(e, ZERO) for e in range(low, trunc)]
        return cls(low, coeffs, trunc)

    # -- access --

    def coeff(self, exp: int) -> WeightedPoly:
        """Coefficient of xi**exp; raises if exp is past the truncation."""
        if exp >= self.trunc:
            raise TruncationTooShallow(
                f"coefficient at xi^{exp} requested, series truncated at xi^{self.trunc}"
            )
        if exp < self.low:
            return ZERO
        return self.coeffs[exp - self.low]

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> tuple[int, WeightedPoly]:
        """(exponent, coefficient) of the lowest nonzero term."""
        if not self.coeffs:
            raise ValueError("zero series has no leading term")
        return self.low, self.coeffs[0]

    def items(self) -> Iterator[tuple[int, WeightedPoly]]:
        for t, c in enumerate(self.coeffs):
            if not c.is_zero():
                yield self.low + t, c

    def relative_order(self) -> int:
        return self.trunc - self.low

    # -- arithmetic --

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        low = min(self.low, other.low, trunc)
        coeffs = [
            self._get(e) + other._get(e) for e in range(low, trunc)
        ]
        return LaurentSeries(low, coeffs, trunc)

    def _get(self, exp: int) -> WeightedPoly:
        if self.low <= exp < self.trunc:
            return self.coeffs[exp - self.low]
        return ZERO

    def __neg__(self) -> "LaurentSeries":
        out = LaurentSeries.__new__(LaurentSeries)
        out.low = self.low
        out.coeffs = tuple(-c for c in self.coeffs)
        out.trunc = self.trunc
        return out

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # for a zero series low == trunc, so this is also the right provable
        # order for products with one or both factors identically zero
        trunc = min(self.low + other.trunc, other.low + self.trunc)
        low = self.low + other.low
        acc = [ZERO] * (trunc - low)
        for ea, ca in enumerate(self.coeffs):
            base = self.low + ea + other.low
            if base >= trunc:
                break
            stop = min(len(other.coeffs), trunc - base)
            for eb in range(stop):
                cb = other.coeffs[eb]
                if cb.is_zero() or ca.is_zero():
                    continue
                acc[base + eb - low] = acc[base + eb - low] + ca * cb
        return LaurentSeries(low, acc, trunc)

    def scale(self, factor: WeightedPoly | Rat) -> "LaurentSeries":
        factor = _require_poly(factor)
        if factor.is_zero():
            return LaurentSeries.zero(self.trunc)
        coeffs = [c * factor for c in self.coeffs]
        return LaurentSeries(self.low, coeffs, self.trunc)

    def shift(self, offset: int) -> "LaurentSeries":
        """Multiply by xi**offset."""
        out = LaurentSeries.__new__(LaurentSeries)
        out.low = self.low + offset
        out.coeffs = self.coeffs
        out.trunc = self.trunc + offset
        return out

    def truncated(self, trunc: int) -> "LaurentSeries":
        """Forget coefficients at exponents >= trunc."""
        if trunc >= self.trunc:
            return self
        low = min(self.low, trunc)
        return LaurentSeries(low, [self._get(e) for e in range(low, trunc)], trunc)

    def __pow__(self, n: int) -> "LaurentSeries":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = LaurentSeries.one(self.relative_order() or 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.low == other.low
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.low, self.trunc, self.coeffs))

    # -- the named series operations --

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse; the lead coefficient must be a nonzero rational."""
        if self.is_zero():
            raise NonUnitLeadingCoefficient("cannot invert the zero series")
        v, lead = self.leading()
        if not lead.is_constant():
            raise NonUnitLeadingCoefficient(
                f"leading coefficient {lead.to_text()} is not a rational constant"
            )
        c0 = lead.constant_value()
        rel = self.relative_order()
        # long-division recurrence on the tail: (c0 + t)(b) = 1
        inv: list[WeightedPoly] = [WeightedPoly.const(1 / c0)]
        for k in range(1, rel):
            acc = ZERO
            for j in range(1, k + 1):
                tj = self.coeffs[j] if j < len(self.coeffs) else ZERO
                if tj.is_zero() or inv[k - j].is_zero():
                    continue
                acc = acc + tj * inv[k - j]
            inv.append(acc * WeightedPoly.const(-1 / c0))
        return LaurentSeries(-v, inv, -v + rel)

    def differentiate(self) -> "LaurentSeries":
        coeffs = [
            c * WeightedPoly.const(self.low + t)
            for t, c in enumerate(self.coeffs)
        ]
        return LaurentSeries(self.low - 1, coeffs, self.trunc - 1)

    def integrate(self) -> "LaurentSeries":
        """Term-wise antiderivative with zero constant term.

        A nonzero known residue raises ResidueObstruction.  A residue past the
        truncation is unknown and is read as zero; callers integrate only
        differentials whose residue is zero, such as one with a single pole.
        """
        res = self._get(-1)
        if not res.is_zero():
            raise ResidueObstruction(
                f"nonzero residue {res.to_text()} blocks term-wise integration"
            )
        terms = {
            e + 1: c / (e + 1) for e, c in self.items() if e != -1
        }
        # the constant of integration is fixed to zero; exponent 0 stays empty
        return LaurentSeries.from_terms(terms, self.trunc + 1)

    def residue(self) -> WeightedPoly:
        """Coefficient of xi**-1; zero when the series provably starts above it."""
        if self.trunc <= -1:
            raise TruncationTooShallow(
                "series truncated before xi^-1; residue is not determined"
            )
        return self._get(-1)

    # -- display --

    def __repr__(self) -> str:
        return f"LaurentSeries({self.to_text()})"

    def to_text(self) -> str:
        chunks = []
        for e, c in self.items():
            coeff = c.to_text()
            if "+" in coeff or coeff.lstrip("-").count("-"):
                coeff = f"({coeff})"
            if e == 0:
                chunks.append(coeff)
            else:
                power = f"xi^{e}" if e != 1 else "xi"
                chunks.append(power if coeff == "1" else f"{coeff}*{power}")
        chunks.append(f"O(xi^{self.trunc})")
        return " + ".join(chunks)


def _require_poly(value) -> WeightedPoly:
    poly = _coerce_poly(value)
    if poly is NotImplemented:
        raise TypeError(f"expected WeightedPoly or rational, got {type(value).__name__}")
    return poly


def residue_of_product(a: LaurentSeries, b: LaurentSeries) -> WeightedPoly:
    """res(a*b) without forming the full product.

    Raises TruncationTooShallow exactly when ``(a*b).residue()`` would: when
    the product is truncated at or below xi^-1.
    """
    if min(a.low + b.trunc, b.low + a.trunc) <= -1:
        raise TruncationTooShallow(
            "series truncated before xi^-1; residue is not determined"
        )
    # above the truncation check, every a_t b_(-1-t) in range is known
    acc = ZERO
    for t in range(a.low, -b.low):
        ca, cb = a.coeffs[t - a.low], b.coeffs[-1 - t - b.low]
        if ca and cb:
            acc = acc + ca * cb
    return acc
