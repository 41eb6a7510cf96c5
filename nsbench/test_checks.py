"""Self-tests of the benchmark: its checks catch corrupted outputs.

    python3 -m pytest -q nsbench

Each check must pass the engine's real output and fail the same output
with one small corruption, and the failure tally must sort typed errors,
bare exceptions and wrong outputs apart.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from nscurves import abelian, errors  # noqa: E402
from spans import Tracer, layer_table  # noqa: E402


def test_flipped_golden_byte_is_wrong():
    plan = workloads.GoldenDerive(ROOT, seed=0)
    op = min(plan.ops, key=lambda op: op[2])
    out = plan.run(op)
    assert plan.check(op, out) == (True, [])
    mid = len(out) // 2
    flipped = out[:mid] + chr(ord(out[mid]) ^ 0x01) + out[mid + 1:]
    assert plan.check(op, flipped) == (False, [])


def test_changed_rational_coefficient_is_wrong():
    plan = workloads.RationalDerive(ROOT, seed=0)
    op = next(op for op in plan.ops if (op[0], op[1]) == (3, 4) and not op[2])
    out = plan.run(op)
    assert plan.check(op, out)[0]
    payload = json.loads(out)
    symbol = payload["functions"][0]["terms"][-1]["coefficient"]["symbols"][0]
    symbol["rational"] = str(int(symbol["rational"].split("/")[0]) + 1)
    assert not plan.check(op, json.dumps(payload))[0]


def test_perturbed_recovered_point_is_wrong():
    plan = workloads.DivisorRoundtrip(ROOT, seed=0)
    op = plan.ops[0]
    drawn, recovered = plan.run(op)
    ok, ratios = plan.check(op, (drawn, recovered))
    assert ok and ratios[0] < 1e-2
    (x, y), *rest = recovered
    moved = [(x + 1e-5 * max(1.0, abs(x)), y)] + rest
    ok, ratios = plan.check(op, (drawn, moved))
    assert not ok and ratios[0] > 1.0


def test_non_finite_recovered_point_is_wrong():
    plan = workloads.DivisorRoundtrip(ROOT, seed=0)
    op = plan.ops[0]
    drawn, recovered = plan.run(op)
    (x, _), *rest = recovered
    nan = complex("nan")
    for bad in ([(x, nan)] + rest, [(nan, nan)] * len(recovered)):
        ok, ratios = plan.check(op, (drawn, bad))
        assert not ok and ratios[0] == math.inf


def test_perturbed_wp_value_is_wrong():
    plan = workloads.HyperLoop(ROOT, seed=0)
    for genus in (1, 2):
        op = next(op for op in plan.ops if op[1] == genus)
        out = plan.run(op)
        ok, ratios = plan.check(op, out)
        assert ok and max(ratios) < 1e-2
        bad = [list(rhs) for rhs in out]
        bad[-1][0] += 1e-5  # wp_11: x for genus 1, x1 + x2 for genus 2
        ok, ratios = plan.check(op, bad)
        assert not ok and max(ratios) > 1.0


class _Faulty:
    """A plan whose ops fail in each of the three ways the tally tells apart."""

    def __init__(self):
        self.ops = ["typed", "bare", "wrong", "right"]

    def points_needed(self, op):
        return 0

    def run(self, op):
        if op == "typed":
            raise errors.SheetLoss("lost the sheet")
        if op == "bare":
            raise ZeroDivisionError("division by zero")
        return op

    def check(self, op, out):
        return out == "right", []


def test_failure_taxonomy():
    tally = run.Tally()
    run.run_pool(_Faulty(), tally, errors.NSCurveError, run.HostSpeed())
    assert tally.attempted == 4 and tally.ok == 1
    assert tally.typed == {"SheetLoss": 1}
    assert tally.bare == {"ZeroDivisionError": 1}
    assert tally.wrong == 1


def test_tracer_sees_calls_between_layers_and_restores():
    original = abelian.expand_at_infinity
    tracer = Tracer()
    with tracer.installed():
        tracer.op = 0
        workloads._derive_json(2, 5, "sym", False)
    assert abelian.expand_at_infinity is original
    table = layer_table(tracer.spans)
    assert table["expansions.expand_at_infinity"]["parents"] == {
        "abelian.build_inversion_system": 1
    }
    assert tracer.counts["algebra.poly_mul"] > 0
    assert tracer.counts["abelian.emitted_terms"] > 0


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "nsbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "nsbench/run.py", "--workload", "golden-derive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
