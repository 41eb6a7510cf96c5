"""Symbolic calculus of sigma-quotients and the derived inversion systems.

The only facts used about the sigma function are structural: zeta_w is its
w-th logarithmic derivative, the functions wp_{i,j,...} = -d^r log sigma are
symmetric in their indices, and differentiating raises the rank by one,

    d zeta_a / d u_w   = -wp_{a,w},
    d wp_S / d u_w     =  wp_{S + (w,)}.

Pulling the divisor point through the Abel map gives the expansion

    T(xi) = d/dxi log sigma(u - A(xi)) = -sum_i A_i'(xi) zeta_(w_i)(u - A(xi)),

a Laurent-in-xi object whose coefficients are linear in the symbols above
with exact series coefficients.  Pairing T against the second-kind integrals
r_l and taking residues produces, for each level l, a closed expression

    R_l(u) = -res(r_l T) = -zeta_l - (rank >= 2 terms),

and differentiating those by u_w assembles the inversion system itself:
`AbelianExpr.gradient` takes every u_w derivative of a relation in one pass,
sharing its coefficients, since each derivative only renames its symbols.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .algebra import LaurentSeries, WeightedPoly, product_text, signed_sum_text
from .curves import CurveFamily, Monomial
from .errors import NumeratorCollision, OrderExceedsSupport, ZetaLeakage
from .expansions import (
    FirstKindBasis,
    SecondKindBasis,
    associated_second_kind,
    expand_at_infinity,
    first_kind_basis,
    second_kind_count,
)

MAX_WP_RANK = 5


@dataclass(frozen=True)
class AbelianSymbol:
    """zeta_w or wp_{i1,...,ir}; indices are gap values, kept sorted."""

    kind: str  # "zeta" | "wp"
    indices: tuple[int, ...]

    def __post_init__(self):
        rank = len(self.indices)
        if self.kind == "zeta":
            if rank != 1:
                raise ValueError(f"zeta takes one index, not {rank}")
        elif self.kind == "wp":
            _require_supported_rank(rank)
            if rank < 2:
                raise ValueError(f"wp takes at least two indices, not {rank}")
            if self.indices != tuple(sorted(self.indices)):
                raise ValueError(f"wp indices {self.indices} are not sorted")
        else:
            raise ValueError(f"unknown symbol kind {self.kind!r}")

    @property
    def json_kind(self) -> str:
        return "zeta" if self.kind == "zeta" else f"wp{len(self.indices)}"

    @property
    def weight(self) -> int:
        return sum(self.indices)

    def sort_key(self) -> tuple:
        return (self.kind != "zeta", len(self.indices), self.indices)

    def to_latex(self) -> str:
        body = ",".join(str(i) for i in self.indices)
        if self.kind == "zeta":
            return f"\\zeta_{{{body}}}"
        return f"\\wp_{{{body}}}"

    def to_text(self) -> str:
        body = ",".join(str(i) for i in self.indices)
        return ("zeta[" if self.kind == "zeta" else "wp[") + body + "]"


def _require_supported_rank(rank: int) -> None:
    if rank > MAX_WP_RANK:
        raise OrderExceedsSupport(
            f"wp of rank {rank} is above the supported {MAX_WP_RANK}"
        )


def _raised_wp(indices: tuple[int, ...], w: int) -> AbelianSymbol:
    """wp(*indices, w) without __post_init__: the indices come from a valid
    symbol, and the caller has checked the raised rank."""
    sym = object.__new__(AbelianSymbol)
    fields = sym.__dict__  # a frozen dataclass without slots keeps them here
    fields["kind"] = "wp"
    fields["indices"] = tuple(sorted((*indices, w)))
    return sym


def zeta(w: int) -> AbelianSymbol:
    return AbelianSymbol("zeta", (w,))


def wp(*indices: int) -> AbelianSymbol:
    return AbelianSymbol("wp", tuple(sorted(indices)))


class AbelianExpr:
    """constant + sum c_sym * sym, WeightedPoly weights, terms in sort_key order."""

    __slots__ = ("terms", "constant")

    def __init__(
        self,
        terms: Mapping[AbelianSymbol, WeightedPoly] | None = None,
        constant: WeightedPoly | None = None,
    ):
        # sorted once here; negation and `gradient` keep the order for every reader
        items = sorted((terms or {}).items(), key=lambda sc: sc[0].sort_key())
        self.terms = {s: c for s, c in items if not c.is_zero()}
        self.constant = constant if constant is not None else WeightedPoly.zero()

    @classmethod
    def _zero_free(cls, terms: dict, constant: WeightedPoly) -> "AbelianExpr":
        """An expression over terms already in canonical order, none zero."""
        out = object.__new__(cls)
        out.terms, out.constant = terms, constant
        return out

    @classmethod
    def from_constant(cls, value: WeightedPoly | int | Fraction) -> "AbelianExpr":
        if not isinstance(value, WeightedPoly):
            value = WeightedPoly.const(value)
        return cls(constant=value)

    def is_zero(self) -> bool:
        return not self.terms and self.constant.is_zero()

    def __neg__(self) -> "AbelianExpr":
        return AbelianExpr._zero_free(
            {s: -c for s, c in self.terms.items()}, -self.constant
        )

    def differentiate(self, w: int) -> "AbelianExpr":
        """d/du_w, the one-gap case of `gradient`."""
        return self.gradient((w,))[0]

    def gradient(self, ws: tuple[int, ...]) -> list["AbelianExpr"]:
        """[d/du_w for w in ws]: constants vanish, zeta_a goes to -wp_{a,w}
        and wp_S to wp_{S+w}.  A wp past MAX_WP_RANK raises OrderExceedsSupport.

        Distinct symbols go to distinct symbols, so each derivative renames
        the terms and shares their (nonzero) coefficients.  Raising by w keeps
        the least element of two same-rank index multisets' difference, which
        orders them, so every derivative inherits this expression's canonical
        order.
        """
        grads: list[dict[AbelianSymbol, WeightedPoly]] = [{} for _ in ws]
        for sym, c in self.terms.items():
            if sym.kind == "zeta":
                c = -c
            else:
                _require_supported_rank(len(sym.indices) + 1)
            for terms, w in zip(grads, ws):
                terms[_raised_wp(sym.indices, w)] = c
        zero = WeightedPoly.zero()
        return [AbelianExpr._zero_free(terms, zero) for terms in grads]

    @property
    def weight(self) -> int | None:
        """Common weight of all contributions, counting wgt u_w = -w."""
        weights = set()
        if not self.constant.is_zero():
            cw = self.constant.weight
            if cw is None:
                return None
            weights.add(cw)
        for sym, c in self.terms.items():
            cw = c.weight
            if cw is None:
                return None
            weights.add(cw + sym.weight)
        if len(weights) == 1:
            return weights.pop()
        return None

    def zeta_terms(self) -> dict[int, WeightedPoly]:
        return {
            s.indices[0]: c for s, c in self.terms.items() if s.kind == "zeta"
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbelianExpr):
            return NotImplemented
        return self.terms == other.terms and self.constant == other.constant

    def __hash__(self) -> int:
        return hash((frozenset(self.terms.items()), self.constant))

    def __repr__(self) -> str:
        return f"AbelianExpr({self.to_text()})"

    def to_text(self) -> str:
        chunks = [] if self.constant.is_zero() else [self.constant.to_text()]
        chunks += [
            product_text(c.to_text(), sym.to_text())
            for sym, c in self.terms.items()
        ]
        return signed_sum_text(chunks)


def _multisets_bounded(values: tuple[int, ...], budget: int) -> list[tuple[int, ...]]:
    """All nondecreasing tuples from values (with repeats) of sum <= budget."""
    out: list[tuple[int, ...]] = [()]

    def rec(prefix: tuple[int, ...], start: int, left: int):
        for idx in range(start, len(values)):
            a = values[idx]
            if a > left:
                break
            seq = prefix + (a,)
            out.append(seq)
            rec(seq, idx, left - a)

    rec((), 0, budget)
    return out


def log_sigma_derivative_expansion(
    first: FirstKindBasis, order: int
) -> list[AbelianExpr]:
    """Coefficients T_0 .. T_order of d/dxi log sigma(u - A(xi)).

    T_p carries wp symbols of rank up to p + 1, and differentiating a relation
    adds one index, so the symbol table supports order + 1 < MAX_WP_RANK.
    """
    if order < 0:
        raise ValueError("expansion order must be nonnegative")
    if order + 1 >= MAX_WP_RANK:
        raise OrderExceedsSupport(
            f"order {order} needs wp symbols of rank {order + 1} after pairing"
        )
    gaps = first.gaps
    small_gaps = tuple(a for a in gaps if a <= order)
    # products[S] = prod_(a in S) (-u_a) / prod_a (multiplicity of a in S)!,
    # formed once per S from products[S[:-1]], which _multisets_bounded lists first
    factors = {
        (a, k): first.u_of_gap(a).truncated(order + 1).scale(Fraction(-1, k))
        for a in small_gaps
        for k in range(1, order // a + 1)
    }
    products: dict[tuple[int, ...], LaurentSeries | None] = {(): None}
    for S in _multisets_bounded(small_gaps, order)[1:]:
        factor = factors[S[-1], S.count(S[-1])]
        products[S] = factor if len(S) == 1 else products[S[:-1]] * factor
    out: list[dict[AbelianSymbol, WeightedPoly]] = [{} for _ in range(order + 1)]
    for i, w in enumerate(gaps):
        if w - 1 > order:
            continue
        du = first.du_series[i].truncated(order + 1)
        for S, product in products.items():
            if sum(S) > order - (w - 1):
                continue
            series = du if product is None else du * product
            sym = wp(*S, w) if S else zeta(w)
            for p in range(order + 1):
                c = series.coeff(p)
                if c.is_zero():
                    continue
                if not S:
                    c = -c
                terms = out[p]
                terms[sym] = terms[sym] + c if sym in terms else c
    return [AbelianExpr(terms) for terms in out]


def zeta_relations(
    second: SecondKindBasis, expansion: list[AbelianExpr]
) -> list[AbelianExpr]:
    """R_l = -res(r_l T) for each level; exact in the symbols, all that T_p holds.

    The pairing normalization guarantees the first-order content of R_l is
    exactly -zeta_l when l is a gap and empty otherwise; anything else
    raises ZetaLeakage.
    """
    fam = second.fam
    out = []
    for idx, r in enumerate(second.r_series):
        level = idx + 1
        if level - 1 >= len(expansion):
            raise OrderExceedsSupport(
                f"level {level} needs the expansion through order {level - 1}"
            )
        terms: dict[AbelianSymbol, WeightedPoly] = {}
        for p, t_p in enumerate(expansion):
            c = r.coeff(-1 - p)
            if c.is_zero():
                continue
            c = -c
            for sym, coeff in t_p.terms.items():
                term = coeff * c
                terms[sym] = terms[sym] + term if sym in terms else term
        relation = AbelianExpr(terms)
        zetas = relation.zeta_terms()
        if level in fam.gaps:
            expected = {level: WeightedPoly.const(-1)}
        else:
            expected = {}
        if zetas != expected:
            raise ZetaLeakage(
                f"level {level}: first-order content {zetas} != {expected}"
            )
        out.append(relation)
    return out


@dataclass
class RFunction:
    """One inversion function: entire part minus wp-corrections, weight 2g-1+l."""

    level: int
    weight: int
    terms: dict[Monomial, AbelianExpr]

    def sorted_terms(self) -> list[tuple[Monomial, AbelianExpr]]:
        return sorted(self.terms.items(), key=lambda mc: -mc[0].sato_weight)


@dataclass
class InversionSystem:
    """The derived solution of the inversion problem for one family."""

    fam: CurveFamily
    first: FirstKindBasis
    second: SecondKindBasis
    zeta_rel: list[AbelianExpr]
    r_functions: list[RFunction]


def build_inversion_system(fam: CurveFamily) -> InversionSystem:
    """Derive the full inversion system of a family from (n, s) and lambda.

    The series at infinity are expanded to `expand_at_infinity`'s default,
    the level count c: the shallowest order whose coefficients cover every
    T_p and every residue the derivation reads (see `second_kind_count`).
    """
    count = second_kind_count(fam)
    # before any expansion: T_(c-1) holds wp of rank c, and the gradient adds one
    _require_supported_rank(count + 1)
    chart = expand_at_infinity(fam)
    first = first_kind_basis(chart)
    second = associated_second_kind(chart, first)
    expansion = log_sigma_derivative_expansion(first, count - 1)
    relations = zeta_relations(second, expansion)
    genus = fam.genus
    r_functions = []
    for idx, relation in enumerate(relations):
        level = idx + 1
        terms: dict[Monomial, AbelianExpr] = {
            mono: AbelianExpr.from_constant(c)
            for mono, c in second.numerators[idx].coefficients.items()
        }
        gradient = (-relation).gradient(fam.gaps)
        for mono, w, coeff in zip(first.numerators, fam.gaps, gradient):
            if coeff.is_zero():
                continue
            if mono in terms:
                msg = f"{mono.as_text()} is in the numerators of du_{w} and dr_{level}"
                raise NumeratorCollision(msg)
            terms[mono] = coeff
        r_functions.append(RFunction(level, 2 * genus - 1 + level, terms))
    return InversionSystem(fam, first, second, relations, r_functions)


# -- canonical emission -----------------------------------------------------
# The JSON text of json.dumps(payload, indent=1) for a fixed schema, written by
# one template per level, so that a line's indent is its depth.  No string needs
# escaping; the tests keep the stdlib encoder as the templates' oracle.

def _json_block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """Rendered items one per line at pad + 1, as json.dumps(indent=1) lays them."""
    if not items:
        return brackets
    return f"{brackets[0]}\n {pad}" + f",\n {pad}".join(items) + f"\n{pad}{brackets[1]}"


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for num/den in lowest terms, den > 0."""
    return str(num) if den == 1 else f"{num}/{den}"


def _symbol_head(kind: str, indices: tuple) -> str:
    """The opening brace and the "kind" and "indices" lines of one symbol."""
    pad = " " * 8
    indices_text = _json_block([str(i) for i in indices], pad)
    return f'{{\n{pad}"kind": "{kind}",\n{pad}"indices": {indices_text},\n'


def _ratio_tail(lam: tuple, num: int, den: int) -> str:
    """The "lambda" and "rational" lines and the closing brace of one symbol."""
    pad = " " * 8
    lambda_text = _json_block([f'"{k}": {e}' for k, e in lam], pad, "{}")
    return (
        f'{pad}"lambda": {lambda_text},\n{pad}"rational": "{_ratio_text(num, den)}"'
        "\n       }"
    )


def _coefficient_json(expr: AbelianExpr, heads: dict, tails: dict) -> str:
    """One R-function coefficient, one symbol object per lambda-monomial.

    heads holds each symbol's rendered head, keyed by its indices, which fix
    its kind; tails holds each coefficient polynomial's rendered tails, keyed
    by identity: the derivatives of a relation share its polynomials, and the
    system keeps every one alive, so no id is reused while the memo lives.
    """
    constant, chunks = "", []
    if not expr.constant.is_zero():
        ratios = expr.constant.sorted_ratios()
        if not ratios[0][0]:
            constant = _ratio_text(*ratios.pop(0)[1:])
        if ratios:
            head = _symbol_head("const", ())
            chunks = [head + _ratio_tail(*ratio) for ratio in ratios]
    for sym, coeff in expr.terms.items():
        head = heads.get(sym.indices)
        if head is None:
            head = heads[sym.indices] = _symbol_head(sym.json_kind, sym.indices)
        pieces = tails.get(id(coeff))
        if pieces is None:
            pieces = tails[id(coeff)] = [
                _ratio_tail(*ratio) for ratio in coeff.sorted_ratios()
            ]
        chunks += [head + tail for tail in pieces]
    symbols = _json_block(chunks, " " * 6)
    head = f'      "constant": "{constant}",\n' if constant else ""
    return f'{{\n{head}      "symbols": {symbols}\n     }}'


def _system_json(system: InversionSystem) -> str:
    fam = system.fam
    # each symbol and each coefficient polynomial is rendered once per call;
    # nothing outlives it
    heads: dict[tuple[int, ...], str] = {}
    tails: dict[int, list[str]] = {}
    functions = []
    for fn in system.r_functions:
        terms = [
            f'{{\n     "monomial": {{\n      "j": {mono.j},\n      "i": {mono.i}'
            f'\n     }},\n     "coefficient": {_coefficient_json(coeff, heads, tails)}'
            "\n    }"
            for mono, coeff in fn.sorted_terms()
        ]
        terms = _json_block(terms, "   ")
        functions.append(f'{{\n   "weight": {fn.weight},\n   "terms": {terms}\n  }}')
    return (
        f'{{\n "n": {fam.n},\n "s": {fam.s},\n "m": {fam.s // fam.n},\n'
        f' "genus": {fam.genus},\n "extended": {"true" if fam.extended else "false"},'
        f'\n "gaps": {_json_block([str(w) for w in fam.gaps], " ")},'
        f'\n "functions": {_json_block(functions, " ")}\n}}\n'
    )


def system_payload(system: InversionSystem) -> dict:
    """The derived system as JSON data: its canonical text, parsed."""
    return json.loads(emit_system(system, fmt="json"))


def _raw_chunks(expr: AbelianExpr) -> list[tuple[tuple, Fraction, str]]:
    """(lambda key, rational, symbol latex) triples in canonical order."""
    chunks: list[tuple[tuple, Fraction, str]] = []
    for key, q in expr.constant.sorted_terms():
        chunks.append((key, q, ""))
    for sym, coeff in expr.terms.items():
        for key, q in coeff.sorted_terms():
            chunks.append((key, q, sym.to_latex()))
    return chunks


def _latex_chunk(
    key: tuple, q: Fraction, sym_tex: str, mono_tex: str = ""
) -> str:
    sign = "-" if q < 0 else "+"
    q = abs(q)
    factors = []
    for k, e in key:
        factors.append(f"\\lambda_{{{k}}}" + (f"^{{{e}}}" if e > 1 else ""))
    if sym_tex:
        factors.append(sym_tex)
    if mono_tex and mono_tex != "1":
        factors.append(mono_tex)
    if q != 1 or not factors:
        if q.denominator == 1:
            factors.insert(0, str(q.numerator))
        else:
            factors.insert(0, f"\\tfrac{{{q.numerator}}}{{{q.denominator}}}")
    return f"{sign} " + " ".join(factors)


def system_latex(system: InversionSystem) -> str:
    lines = ["\\begin{align*}"]
    for fn in system.r_functions:
        parts: list[str] = []
        for mono, coeff in fn.sorted_terms():
            mono_tex = mono.as_latex()
            raw = _raw_chunks(coeff)
            if not raw:
                continue
            if len(raw) == 1:
                key, q, sym_tex = raw[0]
                parts.append(_latex_chunk(key, q, sym_tex, mono_tex))
            else:
                # factor the sign of the first chunk out of the parentheses
                outer = "-" if raw[0][1] < 0 else "+"
                flip = -1 if raw[0][1] < 0 else 1
                inner = " ".join(
                    _latex_chunk(key, flip * q, sym_tex) for key, q, sym_tex in raw
                )
                if inner.startswith("+ "):
                    inner = inner[2:]
                tail = "" if mono_tex == "1" else f" {mono_tex}"
                parts.append(f"{outer} \\left( {inner} \\right){tail}")
        body = " ".join(parts)
        if body.startswith("+ "):
            body = body[2:]
        lines.append(f"R_{{{fn.weight}}}(u) &= {body} \\\\")
    if lines[-1].endswith(" \\\\"):
        lines[-1] = lines[-1][:-3]
    lines.append("\\end{align*}")
    return "\n".join(lines) + "\n"


def emit_system(system: InversionSystem, fmt: str = "latex") -> str:
    """Canonical text for one derived system; byte-stable across runs."""
    if fmt == "json":
        return _system_json(system)
    if fmt == "latex":
        return system_latex(system)
    raise ValueError(f"unknown format {fmt!r}; use 'latex' or 'json'")
