"""Symbolic layer: sigma-log expansion, zeta relations, assembled systems.

The expansion coefficients and closed-form relations asserted below were
worked out by hand family by family; they are exact in the lambda symbols
and independent of the stretching index m, which the tests exercise by
comparing the smallest two members of each family.
"""
import dataclasses
import json
import math
from fractions import Fraction as F
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import nscurves
from nscurves.abelian import (
    MAX_WP_RANK,
    AbelianExpr,
    AbelianSymbol,
    _multisets_bounded,
    build_inversion_system,
    emit_system,
    log_sigma_derivative_expansion,
    system_payload,
    wp,
    zeta,
)
from nscurves.algebra import WeightedPoly
from nscurves.curves import EntireRationalFn, admissible_indices, make_family
from nscurves.errors import (
    NumeratorCollision,
    OrderExceedsSupport,
    TruncationTooShallow,
)
from nscurves.expansions import (
    associated_second_kind,
    expand_at_infinity,
    first_kind_basis,
    second_kind_count,
)

L = WeightedPoly.gen


def combo(*parts):
    """sum coeff * sym over (sym, coeff) pairs, each symbol given once."""
    terms = {}
    for sym, coeff in parts:
        assert sym not in terms, sym
        terms[sym] = coeff if isinstance(coeff, WeightedPoly) else WeightedPoly.const(coeff)
    return AbelianExpr(terms)


def neg(*parts):
    return -combo(*parts)


# -- symbols and expressions -------------------------------------------------


def test_symbol_normalization():
    assert wp(2, 1) == wp(1, 2)
    assert wp(3, 1, 1).indices == (1, 1, 3)
    assert zeta(2).weight == 2
    assert wp(1, 1, 3).weight == 5


def test_wp_above_the_rank_cap_refused():
    message = f"wp of rank 6 is above the supported {MAX_WP_RANK}"
    with pytest.raises(OrderExceedsSupport, match=message):
        nscurves.wp(1, 1, 1, 1, 1, 1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: nscurves.wp(1), "wp takes at least two indices, not 1"),
        (lambda: AbelianSymbol("wp", (3, 1)), r"indices \(3, 1\) are not sorted"),
        (lambda: AbelianSymbol("zeta", (1, 3)), "zeta takes one index, not 2"),
    ],
    ids=["rank-1-wp", "unsorted-wp", "two-index-zeta"],
)
def test_malformed_symbols_refused(make, message):
    # raised, not asserted, so python -O refuses them too
    with pytest.raises(ValueError, match=message):
        make()


def test_expr_weight_counts_lambda():
    expr = combo((zeta(2), 1), (zeta(1), L(1)), (wp(1, 1), F(1, 2)))
    assert expr.weight == 2
    mixed = combo((zeta(2), 1), (wp(1, 3), 1))
    assert mixed.weight is None


def test_differentiate_rules():
    expr = combo((zeta(2), F(1, 2)), (wp(1, 1), L(1)))
    out = expr.differentiate(3)
    assert out == combo((wp(2, 3), F(-1, 2)), (wp(1, 1, 3), L(1)))


def test_differentiate_rank_cap():
    expr = combo((wp(1, 1, 1, 1, 1), 1))
    with pytest.raises(OrderExceedsSupport):
        expr.differentiate(1)


def test_expansion_order_cap():
    chart = expand_at_infinity(make_family(3, 4), 8)
    first = first_kind_basis(chart)
    with pytest.raises(OrderExceedsSupport):
        log_sigma_derivative_expansion(first, 4)
    with pytest.raises(ValueError):
        log_sigma_derivative_expansion(first, -1)


# -- the sigma-log expansion, family by family -------------------------------

# inside-parens content of T_p = -( ... ) for p = 1, 2, 3 as supported
T_TABLES = {
    (2, 5): [[(wp(1, 1), 1)]],
    (2, 7): [[(wp(1, 1), 1)]],
    (3, 4): [[(zeta(2), 1), (wp(1, 1), 1)]],
    (3, 7): [[(zeta(2), 1), (wp(1, 1), 1)]],
    (3, 5): [[(zeta(2), 1), (zeta(1), -L(1) / 3), (wp(1, 1), 1)]],
    (3, 8): [[(zeta(2), 1), (zeta(1), -L(1) / 3), (wp(1, 1), 1)]],
    (4, 5): [
        [(zeta(2), 1), (wp(1, 1), 1)],
        [
            (zeta(3), 1),
            (zeta(1), L(2) / 4),
            (wp(1, 2), F(3, 2)),
            (wp(1, 1, 1), F(-1, 2)),
        ],
    ],
    (4, 7): [
        [(zeta(2), 1), (zeta(1), -L(1) / 2), (wp(1, 1), 1)],
        [
            (zeta(3), 1),
            (zeta(2), -L(1) / 4),
            (zeta(1), -(L(2) / 4 - L(1) ** 2 * F(5, 32))),
            (wp(1, 2), F(3, 2)),
            (wp(1, 1), L(1) * F(-3, 4)),
            (wp(1, 1, 1), F(-1, 2)),
        ],
    ],
    (5, 6): [
        [(zeta(2), 1), (wp(1, 1), 1)],
        [
            (zeta(3), 1),
            (zeta(1), L(2) * F(2, 5)),
            (wp(1, 2), F(3, 2)),
            (wp(1, 1, 1), F(-1, 2)),
        ],
        [
            (zeta(4), 1),
            (zeta(2), L(2) / 5),
            (zeta(1), L(3) / 5),
            (wp(2, 2), F(1, 2)),
            (wp(1, 3), F(4, 3)),
            (wp(1, 1), L(2) * F(8, 15)),
            (wp(1, 1, 2), -1),
            (wp(1, 1, 1, 1), F(1, 6)),
        ],
    ],
    (5, 7): [
        [(zeta(2), 1), (zeta(1), -L(1) / 5), (wp(1, 1), 1)],
        [
            (zeta(3), 1),
            (zeta(2), L(1) / 5),
            (zeta(1), L(1) ** 2 * F(-2, 25)),
            (wp(1, 2), F(3, 2)),
            (wp(1, 1), L(1) * F(-3, 10)),
            (wp(1, 1, 1), F(-1, 2)),
        ],
        [
            (zeta(4), 1),
            (zeta(3), L(1) * F(-2, 5)),
            (zeta(2), L(1) ** 2 * F(-3, 25)),
            (zeta(1), -(L(3) * F(2, 5) - L(1) ** 3 * F(7, 125))),
            (wp(2, 2), F(1, 2)),
            (wp(1, 3), F(4, 3)),
            (wp(1, 2), L(1) / 15),
            (wp(1, 1), L(1) ** 2 * F(-13, 150)),
            (wp(1, 1, 2), -1),
            (wp(1, 1, 1), L(1) / 5),
            (wp(1, 1, 1, 1), F(1, 6)),
        ],
    ],
    (5, 8): [
        [(zeta(2), 1), (zeta(1), L(1) / 5), (wp(1, 1), 1)],
        [
            (zeta(3), 1),
            (zeta(2), -L(1) / 5),
            (zeta(1), -(L(2) / 5 + L(1) ** 2 * F(2, 25))),
            (wp(1, 2), F(3, 2)),
            (wp(1, 1), L(1) * F(3, 10)),
            (wp(1, 1, 1), F(-1, 2)),
        ],
        [
            (zeta(4), 1),
            (zeta(3), L(1) * F(2, 5)),
            (zeta(2), (L(2) / 5 + L(1) ** 2 / 25) * -3),
            (zeta(1), -(L(2) * L(1) * F(6, 25) + L(1) ** 3 * F(7, 125))),
            (wp(2, 2), F(1, 2)),
            (wp(1, 3), F(4, 3)),
            (wp(1, 2), -L(1) / 15),
            (wp(1, 1), -(L(2) * F(4, 15) + L(1) ** 2 * F(13, 150))),
            (wp(1, 1, 2), -1),
            (wp(1, 1, 1), -L(1) / 5),
            (wp(1, 1, 1, 1), F(1, 6)),
        ],
    ],
    (5, 9): [
        [(zeta(2), 1), (zeta(1), L(1) * F(-3, 5)), (wp(1, 1), 1)],
        [
            (zeta(3), 1),
            (zeta(2), L(1) * F(-2, 5)),
            (zeta(1), -(L(2) * F(2, 5) - L(1) ** 2 * F(7, 25))),
            (wp(1, 2), F(3, 2)),
            (wp(1, 1), L(1) * F(-9, 10)),
            (wp(1, 1, 1), F(-1, 2)),
        ],
        [
            (zeta(4), 1),
            (zeta(3), -L(1) / 5),
            (zeta(2), -(L(2) / 5 - L(1) ** 2 * F(3, 25))),
            (
                zeta(1),
                -(
                    L(3) / 5
                    - L(2) * L(1) * F(6, 25)
                    + L(1) ** 3 * F(11, 125)
                ),
            ),
            (wp(2, 2), F(1, 2)),
            (wp(1, 3), F(4, 3)),
            (wp(1, 2), L(1) * F(-17, 15)),
            (wp(1, 1), -(L(2) * F(8, 15) - L(1) ** 2 * F(83, 150))),
            (wp(1, 1, 2), -1),
            (wp(1, 1, 1), L(1) * F(3, 5)),
            (wp(1, 1, 1, 1), F(1, 6)),
        ],
    ],
}


@pytest.mark.parametrize("n,s", sorted(T_TABLES))
def test_log_sigma_expansion(n, s):
    chart = expand_at_infinity(make_family(n, s), 10)
    first = first_kind_basis(chart)
    table = T_TABLES[(n, s)]
    expansion = log_sigma_derivative_expansion(first, len(table))
    assert expansion[0] == neg((zeta(1), 1))
    for p, parts in enumerate(table, start=1):
        assert expansion[p] == neg(*parts), f"T_{p}"


@pytest.mark.parametrize("n,s", sorted(T_TABLES))
def test_expansion_weight_homogeneous(n, s):
    chart = expand_at_infinity(make_family(n, s), 10)
    first = first_kind_basis(chart)
    expansion = log_sigma_derivative_expansion(first, 3)
    for p, t in enumerate(expansion):
        assert t.weight == p + 1


# -- closed-form relations ---------------------------------------------------

R1 = neg((zeta(1), 1))
R2_HYP = neg((wp(1, 1), 1))
R2 = neg((zeta(2), 1), (wp(1, 1), 1))


def R3(extra=None):
    parts = [(zeta(3), 1), (wp(1, 2), F(3, 2)), (wp(1, 1, 1), F(-1, 2))]
    if extra is not None:
        parts.append((wp(1, 1), extra))
    return neg(*parts)


def R4(c12, c11, c111=None):
    parts = [
        (zeta(4), 1),
        (wp(2, 2), F(1, 2)),
        (wp(1, 3), F(4, 3)),
        (wp(1, 1, 2), -1),
        (wp(1, 1, 1, 1), F(1, 6)),
    ]
    if c12 is not None:
        parts.append((wp(1, 2), c12))
    if c11 is not None:
        parts.append((wp(1, 1), c11))
    if c111 is not None:
        parts.append((wp(1, 1, 1), c111))
    return neg(*parts)


RELATION_TABLES = {
    (2, 5, False): [R1, R2_HYP],
    (2, 7, False): [R1, R2_HYP],
    (2, 9, False): [R1, R2_HYP],
    (3, 4, False): [R1, R2],
    (3, 4, True): [R1, R2],
    (3, 5, False): [R1, R2],
    (3, 7, False): [R1, R2],
    (3, 8, False): [R1, R2],
    (4, 5, False): [R1, R2, R3()],
    (4, 7, False): [R1, R2, R3(-L(1) / 2)],
    (5, 6, False): [R1, R2, R3(), R4(None, L(2) / 3)],
    (5, 7, False): [
        R1,
        R2,
        R3(-L(1) / 2),
        R4(L(1) * F(2, 3), -(L(1) ** 2) / 6),
    ],
    (5, 8, False): [
        R1,
        R2,
        R3(L(1) / 2),
        R4(L(1) * F(-2, 3), (L(2) - L(1) ** 2 / 2) / 3),
    ],
    (5, 9, False): [
        R1,
        R2,
        R3(-L(1) / 2),
        R4(L(1) * F(-5, 6), -(L(2) - L(1) ** 2) / 3, L(1) / 2),
    ],
}


@pytest.mark.parametrize("n,s,ext", sorted(RELATION_TABLES))
def test_zeta_relations_closed_form(n, s, ext):
    system = build_inversion_system(make_family(n, s, extended=ext))
    expected = RELATION_TABLES[(n, s, ext)]
    assert len(system.zeta_rel) == len(expected)
    for level, (got, want) in enumerate(zip(system.zeta_rel, expected), 1):
        assert got == want, f"R_{level}"
        assert got.weight == level


def test_relations_do_not_depend_on_stretching():
    for n, s_small, s_big in [(3, 4, 7), (3, 5, 8)]:
        small = build_inversion_system(make_family(n, s_small))
        big = build_inversion_system(make_family(n, s_big))
        assert small.zeta_rel == big.zeta_rel


# -- assembled systems -------------------------------------------------------


def test_r_function_assembly_genus_two():
    # weight-4 function: x^2 - wp_11 x - wp_13; weight-5: 2y + wp_111 x + wp_113
    fam = make_family(2, 5)
    system = build_inversion_system(fam)
    x2 = fam.monomial_of_label(1)
    y1 = fam.monomial_of_label(2)
    x1 = fam.monomial_of_label(-1)
    one = fam.monomial_of_label(-3)
    assert (x2.j, x2.i) == (0, 2)
    assert (y1.j, y1.i) == (1, 0)
    fn1, fn2 = system.r_functions
    assert (fn1.level, fn1.weight) == (1, 4)
    assert fn1.terms == {
        x2: AbelianExpr.from_constant(1),
        x1: combo((wp(1, 1), -1)),
        one: combo((wp(1, 3), -1)),
    }
    assert (fn2.level, fn2.weight) == (2, 5)
    assert fn2.terms == {
        y1: AbelianExpr.from_constant(2),
        x1: combo((wp(1, 1, 1), 1)),
        one: combo((wp(1, 1, 3), 1)),
    }


def test_r_function_gap_coefficients_trigonal():
    # level 2 of (3,5): entire part 2x^3 + l1 yx, gap-1 coefficient
    # -d R_2 / d u_1 = -(wp_12 - wp_111)
    fam = make_family(3, 5)
    system = build_inversion_system(fam)
    fn2 = system.r_functions[1]
    assert fn2.terms[fam.monomial_of_label(2)] == AbelianExpr.from_constant(2)
    assert fn2.terms[fam.monomial_of_label(1)] == AbelianExpr.from_constant(
        L(1)
    )
    assert fn2.terms[fam.monomial_of_label(-1)] == combo(
        (wp(1, 2), -1), (wp(1, 1, 1), 1)
    )


def test_r_function_weights_are_homogeneous():
    for n, s in [(3, 5), (4, 7), (5, 8)]:
        fam = make_family(n, s)
        system = build_inversion_system(fam)
        genus = fam.genus
        for fn in system.r_functions:
            assert fn.weight == 2 * genus - 1 + fn.level
            for mono, coeff in fn.terms.items():
                assert coeff.weight is not None, (mono, coeff)
                assert mono.sato_weight + coeff.weight == fn.weight


@st.composite
def small_shapes(draw):
    """A symbolic family: n in 2..5, s coprime to n, s <= n+8, either shape."""
    n = draw(st.integers(2, 5))
    s = draw(
        st.sampled_from([s for s in range(n + 1, n + 9) if math.gcd(n, s) == 1])
    )
    return make_family(n, s, extended=draw(st.booleans()))


# small rationals with both signs, fractions and 0, so some coefficients vanish
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def small_families(draw):
    """A small_shapes() family at symbolic or at drawn rational lambda."""
    fam = draw(small_shapes())
    if draw(st.booleans()):
        lam = {
            k: draw(RATIONALS) for k in admissible_indices(fam.n, fam.s, fam.extended)
        }
        fam = make_family(fam.n, fam.s, lam, extended=fam.extended)
    return fam


# -- the quadratic sums, kept as the oracle -----------------------------------
# These sum by copy-and-add, one symbol at a time, as the derivation did
# before it summed each result into one dict and differentiated by renaming.


def _copy_add(terms, sym, coeff):
    out = dict(terms)
    acc = out.get(sym, WeightedPoly.zero()) + coeff
    if acc.is_zero():
        out.pop(sym, None)
    else:
        out[sym] = acc
    return out


def quadratic_expansion(first, order):
    gaps = first.gaps
    small_gaps = tuple(a for a in gaps if a <= order)
    out = [{} for _ in range(order + 1)]
    for i, w in enumerate(gaps):
        if w - 1 > order:
            continue
        du = first.du_series[i].truncated(order + 1)
        for S in _multisets_bounded(small_gaps, order - (w - 1)):
            series = du
            for a in S:
                series = series * (-first.u_of_gap(a).truncated(order + 1))
            mult = 1
            for a in set(S):
                mult *= math.factorial(S.count(a))
            if mult != 1:
                series = series.scale(F(1, mult))
            sym, sign = (wp(*S, w), 1) if S else (zeta(w), -1)
            for p in range(order + 1):
                c = series.coeff(p)
                if not c.is_zero():
                    out[p] = _copy_add(out[p], sym, c if sign > 0 else -c)
    return [AbelianExpr(terms) for terms in out]


def quadratic_relations(second, expansion):
    out = []
    for r in second.r_series:
        terms, constant = {}, WeightedPoly.zero()
        for p, t_p in enumerate(expansion):
            c = r.coeff(-1 - p)
            if not c.is_zero():
                for sym, coeff in t_p.terms.items():
                    terms = _copy_add(terms, sym, -(coeff * c))
                constant = constant - t_p.constant * c
        out.append(AbelianExpr(terms, constant))
    return out


def quadratic_differentiate(expr, w):
    terms = {}
    for sym, c in expr.terms.items():
        if sym.kind == "zeta":
            terms = _copy_add(terms, wp(sym.indices[0], w), -c)
        else:
            terms = _copy_add(terms, wp(*sym.indices, w), c)
    return AbelianExpr(terms)


@given(small_families(), st.integers(0, MAX_WP_RANK - 2))
@settings(max_examples=60, deadline=None)
def test_linear_derivation_matches_the_quadratic_oracle(fam, order):
    # T_p at a drawn order on a chart deep enough for it, then the system itself
    first = first_kind_basis(expand_at_infinity(fam, MAX_WP_RANK - 1))
    assert log_sigma_derivative_expansion(first, order) == quadratic_expansion(
        first, order
    )
    system = build_inversion_system(fam)
    expansion = quadratic_expansion(system.first, len(system.r_functions) - 1)
    relations = quadratic_relations(system.second, expansion)
    assert system.zeta_rel == relations
    for fn, relation, numerator in zip(
        system.r_functions, relations, system.second.numerators
    ):
        terms = {
            mono: AbelianExpr.from_constant(c)
            for mono, c in numerator.coefficients.items()
        }
        for mono, w in zip(system.first.numerators, fam.gaps):
            coeff = -quadratic_differentiate(relation, w)
            if not coeff.is_zero():
                terms[mono] = coeff
        assert fn.terms == terms


@given(small_shapes())
@settings(max_examples=40, deadline=None)
def test_differentiation_renames_every_term(fam):
    # zeta_a -> wp_{a,w} and wp_S -> wp_{S+w} are one-to-one, so no two terms meet
    for relation in build_inversion_system(fam).zeta_rel:
        for w in fam.gaps:
            assert len(relation.differentiate(w).terms) == len(relation.terms)


def test_differentiate_refuses_only_past_the_rank_cap():
    top = (1,) * (MAX_WP_RANK - 1)
    below = combo((zeta(2), 1), (wp(*top), L(1)))
    assert below.differentiate(3) == combo(
        (wp(2, 3), -1), (wp(*top, 3), L(1))
    )
    with pytest.raises(OrderExceedsSupport, match=f"rank {MAX_WP_RANK + 1}"):
        combo((zeta(2), 1), (wp(*top, 1), 1)).differentiate(3)


# the fourteen golden families, as (n, s, extended)
GOLDEN_SHAPES = [
    (2, 5, False), (2, 7, False), (2, 9, False), (3, 4, False), (3, 4, True),
    (3, 5, False), (3, 7, False), (3, 8, False), (4, 5, False), (4, 7, False),
    (5, 6, False), (5, 7, False), (5, 8, False), (5, 9, False),
]


@pytest.mark.parametrize("n,s,ext", GOLDEN_SHAPES)
def test_gradient_is_the_derivative_at_each_gap(n, s, ext):
    # the reference builds every symbol through the validating wp()
    fam = make_family(n, s, extended=ext)
    for relation in build_inversion_system(fam).zeta_rel:
        gradient = relation.gradient(fam.gaps)
        assert len(gradient) == len(fam.gaps)
        for w, derivative in zip(fam.gaps, gradient):
            reference = quadratic_differentiate(relation, w)
            assert derivative.constant.is_zero()
            assert len(derivative.terms) == len(reference.terms)
            for sym, c in derivative.terms.items():
                assert c == reference.terms[sym], (w, sym)
            assert derivative == relation.differentiate(w)
            assert list(derivative.terms) == sorted(derivative.terms, key=AbelianSymbol.sort_key)


@given(small_shapes())
@settings(max_examples=40, deadline=None)
def test_gradient_raises_valid_symbols_over_shared_coefficients(fam):
    for relation in build_inversion_system(fam).zeta_rel:
        parents = sorted(relation.terms.items(), key=lambda sc: sc[0].sort_key())
        gradient = relation.gradient(fam.gaps)
        for w, derivative in zip(fam.gaps, gradient):
            assert len(derivative.terms) == len(parents)
            for (parent, c), (sym, d) in zip(parents, derivative.terms.items()):
                raised = wp(*parent.indices, w)
                assert sym == raised and hash(sym) == hash(raised)
                assert (sym.kind, sym.indices) == (raised.kind, raised.indices)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    sym.indices = ()
                # a wp coefficient is the parent's object, a zeta one its negation
                assert d is c if parent.kind == "wp" else d == -c
        # each zeta coefficient is negated once, for every derivative
        for i, (parent, _) in enumerate(parents):
            if parent.kind == "zeta":
                assert len({id(list(g.terms.values())[i]) for g in gradient}) == 1


def test_gradient_refuses_only_past_the_rank_cap():
    top = (1,) * (MAX_WP_RANK - 1)
    assert combo((zeta(2), 1), (wp(*top), L(1))).gradient((1, 3)) == [
        combo((wp(1, 2), -1), (wp(*top, 1), L(1))),
        combo((wp(2, 3), -1), (wp(*top, 3), L(1))),
    ]
    with pytest.raises(OrderExceedsSupport, match=f"rank {MAX_WP_RANK + 1}"):
        combo((zeta(2), 1), (wp(*top, 1), 1)).gradient((1, 3))


@given(small_shapes())
@settings(max_examples=60, deadline=None)
def test_first_kind_numerators_miss_the_second_kind_numerators(fam):
    # du_w's numerator has label -w < 0 and dr_l's monomials have labels 1..l,
    # so assembling R_l never finds a first-kind monomial already taken
    chart = expand_at_infinity(fam)
    first = first_kind_basis(chart)
    second = associated_second_kind(chart, first)
    taken = {mono for num in second.numerators for mono in num.coefficients}
    assert taken.isdisjoint(first.numerators)
    assert all(mono.label < 0 for mono in first.numerators)
    assert all(mono.label > 0 for mono in taken)


def test_shape_above_the_rank_cap_refused_before_expansion(monkeypatch):
    # (6,7) has c = 5 levels, so its gradient would reach wp of rank 6
    def expanded(*args, **kwargs):
        raise AssertionError("expanded a shape past the rank cap")

    monkeypatch.setattr(nscurves.abelian, "expand_at_infinity", expanded)
    with pytest.raises(OrderExceedsSupport, match=f"rank {MAX_WP_RANK + 1}"):
        build_inversion_system(make_family(6, 7))


def test_expression_terms_are_sorted_once_when_built():
    expr = combo((wp(1, 1, 3), 1), (wp(2, 3), 2), (zeta(3), 3), (zeta(1), 4), (wp(1, 3), 5))
    assert list(expr.terms) == [zeta(1), zeta(3), wp(1, 3), wp(2, 3), wp(1, 1, 3)]
    assert list((-expr).terms) == list(expr.terms)


def test_numerator_collision_is_a_typed_error(monkeypatch):
    # put du_1's numerator x into dr_1's: the assembly must refuse, not merge
    def colliding(chart, first):
        second = associated_second_kind(chart, first)
        coeffs = dict(second.numerators[0].coefficients)
        coeffs[first.numerators[0]] = WeightedPoly.one()
        second.numerators[0] = EntireRationalFn(coeffs)
        return second

    monkeypatch.setattr(nscurves.abelian, "associated_second_kind", colliding)
    with pytest.raises(NumeratorCollision) as info:
        build_inversion_system(make_family(2, 5))
    assert str(info.value) == "x is in the numerators of du_1 and dr_1"


@given(small_shapes(), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_derivation_order_is_the_shallowest_that_works(fam, extra):
    # rerun the derivation with the chart it reads expanded to another depth
    def derived_at(depth):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                nscurves.abelian, "expand_at_infinity",
                lambda fam: expand_at_infinity(fam, depth),
            )
            return build_inversion_system(fam)

    order = second_kind_count(fam)
    system = emit_system(build_inversion_system(fam), fmt="json")
    assert emit_system(derived_at(order + extra), fmt="json") == system
    if order > 2:  # order 1 is refused by expand_at_infinity itself
        with pytest.raises(TruncationTooShallow):
            derived_at(order - 1)


# -- emission ----------------------------------------------------------------


def test_emission_is_deterministic():
    a = emit_system(build_inversion_system(make_family(3, 4)), fmt="json")
    b = emit_system(build_inversion_system(make_family(3, 4)), fmt="json")
    assert a == b
    assert a.endswith("\n")


def test_emission_keeps_no_state_between_calls():
    # the memos are keyed by object identity; had one outlived a call, B,
    # built where A's freed polynomials lay, could read A's renderings
    def emitted(fam):
        system = build_inversion_system(fam)
        return system, emit_system(system, fmt="json")

    def module_state():
        return {
            (module.__name__, name): len(value)
            for module in (nscurves.abelian, nscurves.algebra)
            for name, value in vars(module).items()
            if isinstance(value, (dict, list, set)) and not name.startswith("__")
        }

    golden = (resources.files("nscurves") / "golden" / "system_5_7.json").read_text()
    symbolic = make_family(5, 7)
    rational = make_family(5, 7, {k: F(k, 7) for k in admissible_indices(5, 7)})
    state = module_state()
    first = emitted(symbolic)[1]
    system, text = emitted(rational)
    assert json.dumps(_payload_by_dicts(system), indent=1) + "\n" == text
    assert emitted(symbolic)[1] == first == golden
    assert module_state() == state


def test_json_payload_shape():
    fam = make_family(4, 5)
    system = build_inversion_system(fam)
    data = json.loads(emit_system(system, fmt="json"))
    assert data == system_payload(system)
    assert (data["n"], data["s"], data["m"]) == (4, 5, 1)
    assert data["genus"] == 6
    assert data["extended"] is False
    assert data["gaps"] == [1, 2, 3, 6, 7, 11]
    assert len(data["functions"]) == 3
    weights = [fn["weight"] for fn in data["functions"]]
    assert weights == [12, 13, 14]
    for fn in data["functions"]:
        svals = [
            fn_term["monomial"]["j"] * 5 + fn_term["monomial"]["i"] * 4
            for fn_term in fn["terms"]
        ]
        assert svals == sorted(svals, reverse=True)


def _payload_by_dicts(system):
    """The payload as nested dicts, built apart from the emitter's templates."""

    def chunk(kind, indices, key, q):
        return {
            "kind": kind,
            "indices": list(indices),
            "lambda": {str(k): e for k, e in key},
            "rational": str(q),
        }

    def coefficient(expr):
        payload = {}
        if expr.constant.constant_value():
            payload["constant"] = str(expr.constant.constant_value())
        symbols = [
            chunk("const", (), key, q) for key, q in expr.constant.sorted_terms() if key
        ]
        for sym, coeff in sorted(expr.terms.items(), key=lambda sc: sc[0].sort_key()):
            kind = "zeta" if sym.kind == "zeta" else f"wp{len(sym.indices)}"
            terms = coeff.sorted_terms()
            symbols += [chunk(kind, sym.indices, key, q) for key, q in terms]
        payload["symbols"] = symbols
        return payload

    fam = system.fam
    return {
        "n": fam.n,
        "s": fam.s,
        "m": fam.s // fam.n,
        "genus": fam.genus,
        "extended": fam.extended,
        "gaps": list(fam.gaps),
        "functions": [
            {
                "weight": fn.weight,
                "terms": [
                    {
                        "monomial": {"j": mono.j, "i": mono.i},
                        "coefficient": coefficient(coeff),
                    }
                    for mono, coeff in fn.sorted_terms()
                ],
            }
            for fn in system.r_functions
        ],
    }


def small_systems():
    """A small_families() family's derived system."""
    return small_families().map(build_inversion_system)


@given(small_systems())
@settings(max_examples=80, deadline=None)
def test_json_emitter_matches_the_stdlib_encoder(system):
    # the stdlib's indent encoder is the oracle for the hand-written layout,
    # and the dict builder for the content
    text = emit_system(system, fmt="json")
    assert json.dumps(json.loads(text), indent=1) + "\n" == text
    assert json.dumps(_payload_by_dicts(system), indent=1) + "\n" == text


def test_json_emitter_at_zero_lambda_drops_the_vanished_terms():
    fam = make_family(3, 5, {k: 0 for k in admissible_indices(3, 5)})
    system = build_inversion_system(fam)
    text = emit_system(system, fmt="json")
    assert json.dumps(_payload_by_dicts(system), indent=1) + "\n" == text
    assert '"kind": "const"' not in text and '"lambda": {\n' not in text


def test_json_emitter_pins_empty_containers_and_const_symbols():
    text = emit_system(build_inversion_system(make_family(3, 5)), fmt="json")
    # dr_1 = y: a bare constant and no symbols
    assert (
        '     "coefficient": {\n'
        '      "constant": "1",\n'
        '      "symbols": []\n'
        "     }"
    ) in text
    # dr_2 = 2 x^3 + lambda_1 y: lambda_1 y is a const symbol without indices
    assert (
        '      "symbols": [\n'
        "       {\n"
        '        "kind": "const",\n'
        '        "indices": [],\n'
        '        "lambda": {\n'
        '         "1": 1\n'
        "        },\n"
        '        "rational": "1"\n'
        "       }\n"
        "      ]"
    ) in text
    # a wp symbol with no lambda factor
    assert '        "lambda": {},\n        "rational": "-1"\n' in text


def test_json_emitter_extended_family():
    system = build_inversion_system(make_family(3, 4, extended=True))
    text = emit_system(system, fmt="json")
    assert '\n "extended": true,\n' in text
    assert json.dumps(json.loads(text), indent=1) + "\n" == text
    assert json.loads(text) == _payload_by_dicts(system)


def test_latex_emission_pins():
    out = emit_system(build_inversion_system(make_family(2, 5)), fmt="latex")
    assert out.splitlines() == [
        r"\begin{align*}",
        r"R_{4}(u) &= x^{2} - \wp_{1,1} x - \wp_{1,3} \\",
        r"R_{5}(u) &= 2 y + \wp_{1,1,1} x + \wp_{1,1,3}",
        r"\end{align*}",
    ]
    out34 = emit_system(build_inversion_system(make_family(3, 4)), fmt="latex")
    assert (
        r"R_{7}(u) &= 2 y x - \left( \wp_{1,2} - \wp_{1,1,1} \right) y"
        in out34
    )


def test_unknown_format_rejected():
    system = build_inversion_system(make_family(2, 5))
    with pytest.raises(ValueError):
        emit_system(system, fmt="yaml")
