"""The four workloads: seeded inputs, one op each, and the op's check.

Each workload builds a fixed pool of ops from the seed; the benchmark loops
over the whole pool, so every run measures the same mix in the same
proportions.  Engine functions are always called through their module
(``abelian.build_inversion_system``, not an imported name), so a tracer that
replaces the module attribute sees the call.

A check returns ``(ok, ratios)``: one error / tolerance ratio per checked
item, none for the exact workloads, whose outputs must match exactly.
"""
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
from nscurves import abelian, curves, divisors, errors, hyperell

# (golden file, n, s, extended): the fourteen frozen families, genus 2..16
SHAPES = [
    ("system_2_5.json", 2, 5, False),
    ("system_2_7.json", 2, 7, False),
    ("system_2_9.json", 2, 9, False),
    ("system_3_4.json", 3, 4, False),
    ("system_3_4_extended.json", 3, 4, True),
    ("system_3_5.json", 3, 5, False),
    ("system_3_7.json", 3, 7, False),
    ("system_3_8.json", 3, 8, False),
    ("system_4_5.json", 4, 5, False),
    ("system_4_7.json", 4, 7, False),
    ("system_5_6.json", 5, 6, False),
    ("system_5_7.json", 5, 7, False),
    ("system_5_8.json", 5, 8, False),
    ("system_5_9.json", 5, 9, False),
]

RATIONAL_DRAWS = 3  # lambda draws per shape in rational-derive
FAMILIES_PER_SHAPE = 3  # divisor-roundtrip
DIVISORS_PER_FAMILY = 4  # divisor-roundtrip
HYPER_CURVES = 21  # odd, so genus 1 holds the median op: 11 of genus 1, 10 of genus 2
HYPER_DIVISORS = 3  # verified divisors per curve

ROUNDTRIP_TOL = 1e-6
IDENTITY_TOL = {1: 1e-8, 2: 1e-6}


def _golden_bytes(root, name):
    return (Path(root) / "src" / "nscurves" / "golden" / name).read_bytes()


def _genus(n, s):
    return (n - 1) * (s - 1) // 2


def _derive_json(n, s, lam, extended):
    fam = curves.make_family(n, s, lam, extended=extended)
    return abelian.emit_system(abelian.build_inversion_system(fam), fmt="json")


class GoldenDerive:
    """Derive and emit each golden family with symbolic lambda."""

    name = "golden-derive"

    def __init__(self, root, seed):
        rng = np.random.default_rng([seed, 1])
        order = rng.permutation(len(SHAPES))
        self.ops = [SHAPES[i] for i in order]
        self.golden = {name: _golden_bytes(root, name) for name, *_ in SHAPES}
        self.warmup = min(self.ops, key=lambda op: _genus(op[1], op[2]))
        self.sizes = {"ops_per_pool": len(self.ops), "families": len(SHAPES)}

    def points_needed(self, op):
        return 0

    def run(self, op):
        _, n, s, extended = op
        return _derive_json(n, s, "sym", extended)

    def check(self, op, out):
        return out.encode("utf-8") == self.golden[op[0]], []


class RationalDerive:
    """The golden shapes at seeded small-height rational lambda."""

    name = "rational-derive"

    def __init__(self, root, seed):
        rng = np.random.default_rng([seed, 2])
        self.ops = []
        for _ in range(RATIONAL_DRAWS):
            for name, n, s, extended in SHAPES:
                lam = {
                    k: Fraction(
                        int(rng.integers(1, 5)) * int(rng.choice((-1, 1))),
                        int(rng.integers(1, 5)),
                    )
                    for k in oracles.lambda_monomials(n, s, extended)
                }
                expected = oracles.specialised_golden(_golden_bytes(root, name), lam)
                self.ops.append((n, s, extended, lam, expected))
        order = rng.permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]
        self.warmup = min(self.ops, key=lambda op: _genus(op[0], op[1]))
        self.sizes = {
            "ops_per_pool": len(self.ops),
            "draws_per_shape": RATIONAL_DRAWS,
            "lambda": "p/q, |p| in 1..4, q in 1..4",
        }

    def points_needed(self, op):
        return 0

    def run(self, op):
        n, s, extended, lam, _ = op
        return _derive_json(n, s, lam, extended)

    def check(self, op, out):
        return oracles.rational_system_matches(out, op[4]), []


def _unit_family(n, s, extended, rng):
    # lambda uniform in [-1, 1] at six decimals, redrawn until the
    # discriminant roots are 1e-3 apart
    monomials = oracles.lambda_monomials(n, s, extended)
    while True:
        lam = {k: round(rng.uniform(-1.0, 1.0), 6) for k in monomials}
        fam = curves.make_family(n, s, lam, extended=extended)
        try:
            curves.check_nondegenerate(fam, tol=1e-3)
        except errors.NSCurveError:
            continue
        return fam, lam, monomials


class DivisorRoundtrip:
    """random_divisor -> rfunctions_from_divisor -> solve_divisor."""

    name = "divisor-roundtrip"

    def __init__(self, root, seed):
        rng = np.random.default_rng([seed, 3])
        self.ops = []
        for _, n, s, extended in SHAPES:
            for _ in range(FAMILIES_PER_SHAPE):
                fam, lam, monomials = _unit_family(n, s, extended, rng)
                for _ in range(DIVISORS_PER_FAMILY):
                    op_seed = int(rng.integers(2 ** 62))
                    self.ops.append((fam, op_seed, n, s, lam, monomials))
        order = rng.permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]
        self.warmup = min(self.ops, key=lambda op: op[0].genus)
        self.sizes = {
            "ops_per_pool": len(self.ops),
            "families": len(SHAPES) * FAMILIES_PER_SHAPE,
            "divisors_per_family": DIVISORS_PER_FAMILY,
        }

    def points_needed(self, op):
        return op[0].genus

    def run(self, op):
        fam, op_seed = op[0], op[1]
        rng = np.random.default_rng(op_seed)
        divisor = divisors.random_divisor(fam, rng)
        system = divisors.rfunctions_from_divisor(
            fam, divisor, seed=int(rng.integers(2 ** 62))
        )
        recovered = divisors.solve_divisor(system)
        return (
            [(p.x, p.y) for p in divisor.points],
            [(p.x, p.y) for p in recovered.points],
        )

    def check(self, op, out):
        fam, _, n, s, lam, monomials = op
        drawn, recovered = out
        on_curve = len(drawn) == fam.genus and all(
            oracles.curve_residual(n, s, monomials, lam, x, y) <= 1e-8
            for x, y in drawn
        )
        ratio = oracles.recovery_error(recovered, drawn) / ROUNDTRIP_TOL
        return on_curve and ratio < 1.0, [ratio]


def _branch_points(genus, rng):
    # real, sorted, centred, at least 0.25 apart
    while True:
        es = np.sort(rng.uniform(-2.2, 2.2, size=2 * genus + 1))
        es -= es.mean()
        if min(np.diff(es)) > 0.25:
            return es


class HyperLoop:
    """compute_periods, then verify_inversion on a few divisors, per curve."""

    name = "hyper-loop"

    def __init__(self, root, seed):
        rng = np.random.default_rng([seed, 4])
        self.ops = []
        for idx in range(HYPER_CURVES):
            genus = 1 + idx % 2
            es = _branch_points(genus, rng)
            fam = hyperell.hyperelliptic_from_branch_points(es)
            divs = []
            for _ in range(HYPER_DIVISORS):
                points = []
                for _ in range(genus):
                    x = complex(rng.normal(0.0, 1.4), rng.normal(0.0, 1.4))
                    y = np.sqrt(np.prod(x - es)) * (1 if rng.integers(2) else -1)
                    points.append((x, complex(y)))
                divs.append(points)
            self.ops.append((fam, genus, divs))
        self.warmup = self.ops[0]
        self.sizes = {
            "ops_per_pool": len(self.ops),
            "genus_1_curves": (HYPER_CURVES + 1) // 2,
            "genus_2_curves": HYPER_CURVES // 2,
            "divisors_per_curve": HYPER_DIVISORS,
        }

    def points_needed(self, op):
        return 0

    def run(self, op):
        fam, _, divs = op
        periods = hyperell.compute_periods(fam)
        reports = []
        for points in divs:
            divisor = divisors.make_divisor(
                fam, [curves.CurvePoint(x, y) for x, y in points]
            )
            report = hyperell.verify_inversion(fam, divisor, periods)
            reports.append([check.rhs for check in report])
        return reports

    def check(self, op, out):
        _, genus, divs = op
        if len(out) != len(divs):
            return False, []
        ratios = [
            oracles.hyperelliptic_identity_error(points, rhs) / IDENTITY_TOL[genus]
            for points, rhs in zip(divs, out)
        ]
        return max(ratios) < 1.0, ratios


WORKLOADS = {
    cls.name: cls for cls in (GoldenDerive, RationalDerive, DivisorRoundtrip, HyperLoop)
}
