"""Curve family construction: gaps, monomial order, lambda indexing, fibers."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_golden import GOLDEN_TARGETS
from nscurves.algebra import WeightedPoly
from nscurves.curves import (
    DISCRIMINANT_TRIM,
    CurveFamily,
    CurvePoint,
    _sylvester_dets,
    admissible_indices,
    check_nondegenerate,
    discriminant_roots,
    family_from_text,
    family_to_text,
    make_family,
)
from nscurves.errors import (
    BranchCollision,
    InvalidLambdaIndex,
    NotCoprime,
    RootFindingFailure,
    SymbolicLambda,
)

SHAPES = [(n, s, ext) for _, n, s, ext in GOLDEN_TARGETS]


def unit_family(n, s, extended, rng):
    """Every admissible lambda uniform in [-1, 1]."""
    lam = {
        k: rng.uniform(-1.0, 1.0) for k in admissible_indices(n, s, extended)
    }
    return make_family(n, s, lam, extended=extended)


def test_family_validation():
    with pytest.raises(NotCoprime):
        make_family(2, 4)
    with pytest.raises(NotCoprime):
        make_family(3, 6)
    with pytest.raises(NotCoprime):
        make_family(4, 3)
    with pytest.raises(NotCoprime):
        make_family(1, 5)


def test_gap_count_off_the_genus_is_a_typed_error():
    # built directly, past make_family: <3, 6> leaves 6 gaps where the genus
    # formula gives 5, but <2, 4> leaves 1 gap, as many as its genus formula
    # gives, so only the shared factor refuses it
    with pytest.raises(NotCoprime, match="^n=3 and s=6 share a factor$"):
        CurveFamily(3, 6, {}, False, {})
    with pytest.raises(NotCoprime, match="^n=2 and s=4 share a factor$"):
        CurveFamily(2, 4, {}, False, {})
    with pytest.raises(NotCoprime, match="^need 2 <= n < s, got n=4, s=3$"):
        CurveFamily(4, 3, {}, False, {})


def test_genus_and_gaps_small_families():
    cases = {
        (2, 3): (1, (1,)),
        (2, 5): (2, (1, 3)),
        (2, 7): (3, (1, 3, 5)),
        (3, 4): (3, (1, 2, 5)),
        (3, 5): (4, (1, 2, 4, 7)),
        (4, 5): (6, (1, 2, 3, 6, 7, 11)),
        (5, 6): (10, (1, 2, 3, 4, 7, 8, 9, 13, 14, 19)),
    }
    for (n, s), (genus, gaps) in cases.items():
        fam = make_family(n, s)
        assert fam.genus == genus == (n - 1) * (s - 1) // 2
        assert fam.gaps == gaps
        assert max(gaps) == 2 * genus - 1


def test_gap_structure_general():
    for n, s in [(2, 9), (3, 7), (3, 8), (4, 7), (5, 9)]:
        fam = make_family(n, s)
        if n == 2:
            assert fam.gaps == tuple(range(1, 2 * fam.genus, 2))
        else:
            # the first n-1 positive integers are always gaps for n >= 3
            assert fam.gaps[: n - 1] == tuple(range(1, n))


def test_monomial_order_and_labels_34():
    fam = make_family(3, 4)
    basis = fam.monomial_basis(2 * fam.genus)
    texts = [m.as_text() for m in basis]
    assert texts == ["1", "x", "y", "x^2", "y*x", "y^2"]
    assert [m.sato_weight for m in basis] == [0, 3, 4, 6, 7, 8]
    assert [m.label for m in basis] == [-5, -2, -1, 1, 2, 3]
    # labels of the constant-to-first-gap block complement the gap sequence
    assert fam.monomial_of_label(1).as_text() == "x^2"
    assert fam.monomial_of_label(-5).as_text() == "1"
    assert fam.monomial_of_weight(5) is None  # 5 is a gap


def test_monomial_weights_cover_nongaps():
    fam = make_family(4, 7)
    basis = fam.monomial_basis(30)
    weights = [m.sato_weight for m in basis]
    assert weights == sorted(weights)
    nongaps = [w for w in range(weights[-1] + 1) if w not in fam.gaps]
    assert weights == nongaps


def test_admissible_indices_34():
    canonical = admissible_indices(3, 4)
    assert set(canonical) == {2, 5, 6, 8, 9, 12}
    assert canonical[2] == (1, 2)
    assert canonical[12] == (0, 0)
    ext = admissible_indices(3, 4, extended=True)
    assert set(ext) == {1, 2, 3, 4, 5, 6, 8, 9, 12}
    assert ext[1] == (2, 1)
    assert ext[3] == (0, 3)
    assert ext[4] == (2, 0)


def test_lambda_index_weight_consistency():
    for n, s in [(2, 5), (3, 5), (4, 5), (5, 9)]:
        for k, (j, i) in admissible_indices(n, s).items():
            assert k == n * s - j * s - i * n
            assert k > 0 and 0 <= j <= n - 2 and 0 <= i <= s - 2


def test_invalid_lambda_rejected():
    with pytest.raises(InvalidLambdaIndex):
        make_family(3, 4, {1: 1})
    with pytest.raises(InvalidLambdaIndex):
        make_family(3, 4, {7: 1})
    fam = make_family(3, 4, {1: Fraction(1, 2)}, extended=True)
    assert fam.lam[1] == WeightedPoly.const(Fraction(1, 2))


@pytest.mark.parametrize(
    "n, s, lam",
    [(2, 5, {4: float("nan")}), (3, 4, {2: float("inf")}), (2, 5, {6: complex(1, float("inf"))})],
    ids=["nan", "inf", "complex-inf"],
)
def test_non_finite_lambda_refused(n, s, lam):
    (k,) = lam
    with pytest.raises(ValueError, match=f"lambda_{k} = .* is not finite"):
        make_family(n, s, lam)
    with pytest.raises(ValueError, match=f"lambda_{k} = .* is not finite"):
        family_from_text(f"n = {n}\ns = {s}\nlambda.{k} = {lam[k]}\n")


def test_exact_vs_numeric_lambda():
    sym = make_family(3, 4)
    sym.exact_lambda()  # raises SymbolicLambda if any lambda_k is a float
    with pytest.raises(SymbolicLambda):
        sym.numeric_lambda()
    num = make_family(2, 5, {4: 0.5, 6: -1.0, 8: 0.0, 10: 2.0})
    assert num.numeric_lambda()[4] == 0.5
    with pytest.raises(SymbolicLambda):
        num.exact_lambda()
    exact = make_family(2, 5, {4: Fraction(1, 2), 6: -1})
    assert exact.numeric_lambda() == {4: 0.5, 6: -1.0}
    assert exact.exact_lambda()[6] == WeightedPoly.const(-1)


def test_symbolic_twin_keeps_shape():
    fam = make_family(3, 4, {1: 0.5}, extended=True)
    twin = fam.symbolic_twin()
    assert twin.extended
    twin.exact_lambda()  # raises SymbolicLambda if any lambda_k is a float
    assert set(twin.lam) == set(admissible_indices(3, 4, extended=True))


def test_eval_and_fiber_25():
    # y^2 = x^5 - x: lambda_8 = -1, so f = -y^2 + x^5 - x
    fam = make_family(2, 5, {8: -1})
    x = 2.0
    points = fam.lift_x_to_points(x)
    assert len(points) == 2
    for p in points:
        assert abs(fam.eval_f(p.x, p.y)) < 1e-9
        assert abs(p.y ** 2 - (x ** 5 - x)) < 1e-9


@pytest.mark.parametrize("n,s,ext", SHAPES)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_batch_lift_equals_np_roots(n, s, ext, seed):
    rng = np.random.default_rng(seed)
    fam = unit_family(n, s, ext, rng)
    xs = [complex(rng.normal(), rng.normal()) for _ in range(6)]
    for x, ys in zip(xs, fam.fiber_roots(xs).tolist()):
        want = sorted(np.roots(fam.y_poly(x)), key=lambda z: (z.real, z.imag))
        assert ys == [complex(y) for y in want]
        assert fam.lift_x_to_points(x) == [CurvePoint(x, y) for y in ys]


H = math.sqrt(3) / 2
NAN = float("nan")


def lexsorted(row):
    """The order fiber_roots gave each row before its one complex sort."""
    row = np.asarray(row)
    return row[np.lexsort((row.imag, row.real))]


# y^3 = x^4: over x = 1 the cube roots of 1, two of them on one real part;
# over x = 0 a triple root, here carrying 0.0 and -0.0 in both parts
TIED_ROWS = [
    (1.0, [complex(-0.5, H), 1 + 0j, complex(-0.5, -H)]),
    (1.0, [complex(-0.5, -H), complex(-0.5, H), 1 + 0j]),
    (0.0, [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0)]),
    (0.0, [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)]),
]


def test_fiber_rows_sort_as_lexsort_did(monkeypatch):
    # eigvals hands back the rows in a chosen order; every row, ties on the
    # real part and signed zeros kept bit for bit, comes out in lexsort's order
    fam = make_family(3, 4, {})
    xs, rows = zip(*TIED_ROWS)
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.array(rows))
    got = fam.fiber_roots(list(xs))
    assert got.tobytes() == np.array([lexsorted(row) for row in rows]).tobytes()


@pytest.mark.parametrize(
    "row",
    [
        [complex(NAN, 0.0), 1 + 0j, -1 + 0j],
        [complex(NAN, NAN), 1 + 0j, complex(NAN, -1.0)],
        [complex(NAN, 2.0), complex(NAN, 1.0), complex(NAN, NAN)],
        [complex(1.0, NAN), 2 + 0j, -1 + 0j],
    ],
    ids=["nan-real", "nan-both", "all-nan-real", "nan-imaginary"],
)
def test_a_fiber_row_holding_a_nan_is_refused_whatever_its_order(monkeypatch, row):
    # a NaN real part sorts last under both sorts, as lexsort put it; a NaN
    # imaginary part alone sorts after the finite roots under the complex
    # sort, where lexsort left it by its real part.  Neither order leaves
    # fiber_roots: a NaN root fails the residual check, which names the x
    row = np.array(row)
    if not (np.isnan(row.imag) & ~np.isnan(row.real)).any():
        assert np.sort(row, kind="stable").tobytes() == lexsorted(row).tobytes()
    fam = make_family(3, 4, {})
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.array([[1 + 0j, 1 + 0j, 1 + 0j], row]))
    with pytest.raises(RootFindingFailure, match=r"at x=\(2\+0j\)"):
        fam.fiber_roots([1.0, 2.0])


def y_row_by_terms(fam, x):
    """y_poly as it was built before the coefficient table, a Python term per
    lambda, and the row's scale: the sum of the sizes of all its terms."""
    lam = fam.numeric_lambda()
    row = [0j] * (fam.n + 1)
    row[0] = -1.0 + 0j
    row[fam.n] = x ** fam.s
    for k, j, i, _ in fam.lambda_terms():
        row[fam.n - j] += lam[k] * x ** i
    scale = 1 + abs(x) ** fam.s + sum(abs(lam[k] * x ** i) for k, _, i, _ in fam.lambda_terms())
    return np.array(row), scale


@pytest.mark.parametrize("n,s,ext", SHAPES)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_table_rows_equal_the_per_term_rows(n, s, ext, seed):
    # the same terms, added in another order
    rng = np.random.default_rng(seed)
    fam = unit_family(n, s, ext, rng)
    xs = [complex(rng.normal(scale=2), rng.normal(scale=2)) for _ in range(4)]
    for x in xs + [0.0, 1.5, -2j, 1e20]:
        want, scale = y_row_by_terms(fam, x)
        assert np.max(np.abs(fam.y_poly(x) - want)) <= 1e-15 * scale
        # eval_f reads the same table by Horner in x, one point in Python
        y = complex(rng.normal(), rng.normal())
        value = fam.eval_f(x, y)
        assert isinstance(value, complex)
        assert abs(value - np.polyval(want, y)) <= 1e-14 * scale * max(1.0, abs(y)) ** n


@pytest.mark.parametrize("n,s,ext", SHAPES)
def test_a_fiber_does_not_depend_on_its_batch(n, s, ext):
    rng = np.random.default_rng(10 * n + s)
    fam = unit_family(n, s, ext, rng)
    xs = [complex(rng.normal(), rng.normal()) for _ in range(82)]
    batch = fam.fiber_roots(xs)
    rows = fam._rows(xs)
    for k, (x, x2) in enumerate(zip(xs, xs[1:])):
        alone = fam.fiber_roots([x])[0]
        assert alone.tobytes() == fam.fiber_roots([x, x2])[0].tobytes() == batch[k].tobytes()
        want = sorted(np.roots(fam.y_poly(x)), key=lambda z: (z.real, z.imag))
        assert alone.tobytes() == np.array(want).tobytes()
        assert fam.lift_x_to_points(x) == [
            CurvePoint(x, y) for y in fam.fiber_roots([x, x2])[0].tolist()]
        assert rows[k].tobytes() == fam.y_poly(x).tobytes()


def sylvester_det_per_node(fam, x):
    """discriminant_roots' value at one node, as it was taken before the batch."""
    p = fam.y_poly(x)
    q = np.polyder(p)
    n, m = len(p) - 1, len(q) - 1
    mat = np.zeros((n + m, n + m), dtype=complex)
    for r in range(m):
        mat[r, r : r + n + 1] = p
    for r in range(n):
        mat[m + r, r : r + m + 1] = q
    return np.linalg.det(mat)


@pytest.mark.parametrize("n,s,ext", SHAPES)
def test_stacked_sylvester_dets_equal_the_per_node_dets(n, s, ext):
    fam = unit_family(n, s, ext, np.random.default_rng(n + s))
    count = (2 * n - 1) * s + 1
    nodes = 1.25 * np.exp(2j * np.pi * np.arange(count) / count)
    want = np.array([sylvester_det_per_node(fam, x) for x in nodes])
    assert _sylvester_dets(fam, nodes).tobytes() == want.tobytes()


def discriminant_coefficients_by_dft(fam):
    """discriminant_roots' coefficients as they were taken before the FFT."""
    count = (2 * fam.n - 1) * fam.s + 1
    nodes = 1.25 * np.exp(2j * np.pi * np.arange(count) / count)
    dft = np.exp(-2j * np.pi * np.outer(np.arange(count), np.arange(count)) / count)
    return dft @ _sylvester_dets(fam, nodes) / count / 1.25 ** np.arange(count)


@pytest.mark.parametrize("n,s,ext", SHAPES)
def test_discriminant_fft_equals_the_dft_matrix(n, s, ext, monkeypatch):
    # the polynomial handed to np.roots, against the DFT matrix's, trimmed alike
    seen, roots = [], np.roots
    monkeypatch.setattr(np, "roots", lambda p: seen.append(p) or roots(p))
    rng = np.random.default_rng([n, s, ext, 5])
    for _ in range(5):
        fam = unit_family(n, s, ext, rng)
        discriminant_roots(fam)
        want = discriminant_coefficients_by_dft(fam)
        norm = float(np.max(np.abs(want)))
        want = np.trim_zeros(np.where(np.abs(want) > DISCRIMINANT_TRIM * norm, want, 0), "b")
        got = seen.pop()[::-1]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * norm


def test_fiber_full_size_at_generic_x():
    fam = make_family(3, 4, {2: 1.0, 5: -0.5})
    points = fam.lift_x_to_points(1.3 + 0.2j)
    assert len(points) == 3
    for p in points:
        assert abs(fam.eval_f(p.x, p.y)) < 1e-8


def test_curve_file_roundtrip():
    text = """
    # a tetragonal curve
    n = 4
    s = 5
    lambda.2 = 1/2
    lambda.7 = -3
    lambda.10 = sym
    """
    fam = family_from_text(text)
    assert (fam.n, fam.s) == (4, 5)
    assert fam.lam[2] == WeightedPoly.const(Fraction(1, 2))
    assert fam.lam[10] == WeightedPoly.gen(10)
    again = family_from_text(family_to_text(fam))
    assert again.lam == fam.lam and again.n == fam.n and again.s == fam.s


def test_curve_file_errors():
    with pytest.raises(ValueError):
        family_from_text("n = 3")
    with pytest.raises(ValueError):
        family_from_text("n = 3\ns = 4\nbogus = 1")


@pytest.mark.parametrize(
    "value,expected", [("yes", True), ("TRUE", True), ("0", False), ("no", False)]
)
def test_curve_file_reads_extended_switch(value, expected):
    fam = family_from_text(f"n = 3\ns = 4\nextended = {value}\n")
    assert fam.extended is expected


@pytest.mark.parametrize(
    "text,message",
    [
        ("n = 3\ns = 4\nextended = maybe\n", "line 3: extended = 'maybe' is not true or false"),
        ("n = 3\ns = 4\nlambda.12 = 1\nlambda.12 = 2\n", "line 4: lambda.12 is set twice"),
        ("n = 3\ns = 4\nlambda.12 = 1\nlambda.012 = 2\n", "line 4: lambda.12 is set twice"),
        ("n = 3\nn = 2\ns = 5\n", "line 2: n is set twice"),
    ],
    ids=["unknown-extended", "repeated-lambda", "repeated-lambda-spelling", "repeated-n"],
)
def test_curve_file_refuses_ambiguous_lines(text, message):
    with pytest.raises(ValueError) as info:
        family_from_text(text)
    assert str(info.value) == message


def test_nondegeneracy_check():
    good = make_family(2, 3, {4: -1.0, 6: 0.0})
    assert check_nondegenerate(good) > 0.5
    cusp = make_family(2, 3, {4: 0.0, 6: 0.0})
    with pytest.raises(BranchCollision):
        check_nondegenerate(cusp)
    smooth5 = make_family(2, 5, {4: -5.0, 6: 0.0, 8: 4.0, 10: 0.0})
    # y^2 = x^5 - 5 x^3 + 4 x = x(x^2-1)(x^2-4): branch points -2,-1,0,1,2
    assert check_nondegenerate(smooth5) == pytest.approx(1.0, rel=1e-6)
