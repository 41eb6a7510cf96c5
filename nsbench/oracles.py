"""Output checks that never call the engine they judge.

Every function here works from plain data: golden file bytes, parsed JSON,
complex numbers.  None imports ``nscurves``, so a defect in the engine
cannot hide itself by also breaking its own check.
"""
import cmath
import json
import math
from fractions import Fraction

# Margins are capped at the digits a double carries; an exact workload, whose
# outputs match bit for bit, reports the cap.
MARGIN_CAP_DIGITS = 16.0


def lambda_monomials(n, s, extended=False):
    """Map lambda subscript k -> (j, i) of its monomial y^j x^i.

    k = ns - js - in > 0, with j <= n-2 and i <= s-2 on the canonical shape
    and j <= n-1, any i, on the extended one.
    """
    out = {}
    for j in range(n if extended else n - 1):
        i = 0
        while n * s - j * s - i * n > 0:
            if extended or i <= s - 2:
                out[n * s - j * s - i * n] = (j, i)
            i += 1
    return out


# -- exact systems -------------------------------------------------------------


def system_header(payload):
    """Everything in a system payload except the coefficients."""
    return (
        payload["n"],
        payload["s"],
        payload["m"],
        payload["genus"],
        payload["extended"],
        tuple(payload["gaps"]),
        tuple(fn["weight"] for fn in payload["functions"]),
    )


def canonical_system(payload, lam=None):
    """{(weight, j, i): {(kind, indices): Fraction}} with lambda substituted.

    Constants, both the "constant" field and "const" symbols, collect under
    ("const", ()).  Zero coefficients and emptied terms are dropped, so a
    symbolic payload specialised at ``lam`` compares equal to the payload
    derived directly from the specialised curve.
    """
    out = {}
    for fn in payload["functions"]:
        for term in fn["terms"]:
            coeff = term["coefficient"]
            acc = {}
            if "constant" in coeff:
                acc[("const", ())] = Fraction(coeff["constant"])
            for sym in coeff["symbols"]:
                value = Fraction(sym["rational"])
                for k, e in sym["lambda"].items():
                    if lam is None:
                        raise ValueError("symbolic payload needs lambda values")
                    value *= lam[int(k)] ** e
                key = (sym["kind"], tuple(sym["indices"]))
                acc[key] = acc.get(key, Fraction(0)) + value
            acc = {key: v for key, v in acc.items() if v}
            if not acc:
                continue
            mono = (fn["weight"], term["monomial"]["j"], term["monomial"]["i"])
            if mono in out:
                raise ValueError(f"monomial {mono} appears twice")
            out[mono] = acc
    return out


def specialised_golden(golden_bytes, lam):
    """The expected (header, coefficients) of a system at rational lambda."""
    payload = json.loads(golden_bytes)
    return system_header(payload), canonical_system(payload, lam)


def rational_system_matches(text, expected):
    """Does an emitted JSON system equal the specialised golden payload?"""
    try:
        payload = json.loads(text)
        got = system_header(payload), canonical_system(payload)
    except (ValueError, KeyError, TypeError):
        return False
    return got == expected


# -- numeric round trips -------------------------------------------------------


def curve_residual(n, s, monomials, lam, x, y):
    """|f(x, y)| relative to the size of its leading terms."""
    value = -(y ** n) + x ** s
    for k, (j, i) in monomials.items():
        value += lam[k] * y ** j * x ** i
    scale = max(1.0, abs(x)) ** s + max(1.0, abs(y)) ** n
    return abs(value) / scale


def recovery_error(got, want):
    """Worst relative distance after matching each wanted point to its nearest.

    Points are (x, y) complex pairs; the scale per point is max(1, |x|, |y|)
    of the wanted point.  A count mismatch or a coordinate that is not
    finite is an infinite error.
    """
    if len(got) != len(want) or not all(cmath.isfinite(c) for point in got for c in point):
        return math.inf
    left = list(got)
    worst = 0.0
    for bx, by in want:
        scale = max(1.0, abs(bx), abs(by))
        dists = [max(abs(ax - bx), abs(ay - by)) / scale for ax, ay in left]
        best = min(range(len(left)), key=dists.__getitem__)
        worst = max(worst, dists[best])
        left.pop(best)
    return worst


def hyperelliptic_identity_error(points, rhs):
    """Distance between the divisor's own symmetric data and the wp side.

    Genus 1: (x, y) against (wp_11, -wp_111/2).  Genus 2: (x1 + x2, x1 x2,
    y1, y2) against (wp_11, -wp_13, -(x_k wp_111 + wp_113)/2).  The left
    sides are recomputed here from the points, so only the wp values come
    from the program under test.
    """
    if len(points) == 1:
        (x, y), = points
        lhs = [x, y]
    elif len(points) == 2:
        (x1, y1), (x2, y2) = points
        lhs = [x1 + x2, x1 * x2, y1, y2]
    else:
        raise ValueError("identities are written for genus 1 and 2")
    if len(rhs) != len(lhs):
        return math.inf
    errors = [abs(a - complex(b)) for a, b in zip(lhs, rhs)]
    return max(errors) if all(map(math.isfinite, errors)) else math.inf


def margin_digits(ratio):
    """log10(tolerance / error) from ratio = error / tolerance, capped both ways."""
    if ratio <= 0.0:
        return MARGIN_CAP_DIGITS
    return max(-MARGIN_CAP_DIGITS, min(MARGIN_CAP_DIGITS, -math.log10(ratio)))
