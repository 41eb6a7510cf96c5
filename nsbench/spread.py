"""Run the benchmark over several seeds and report each metric's spread.

    python3 nsbench/spread.py --seeds 1-10 [--save nsbench/out/a.json]
                              [--against nsbench/out/b.json]

It runs every workload of BENCHMARK.json for its run_seconds, once per
seed.  For each workload and end-to-end metric it prints the median over
the seeds and the spread (q3 - q1) / median, with quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json.  A spread above a third of the bound is marked ``wide``,
one above the bound ``FAIL``.  With ``--against``, each median is also
compared with the median of an earlier saved set: worse by more than the
bound is marked ``WORSE``.
Run from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--save", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    earlier = json.loads(args.against.read_text()) if args.against else {}
    collected = {}
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds_from(args.seeds):
            values, result = run_once(spec, workload, seed)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
                bad += 1
            runs.append(values)
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in values.items()))
            sys.stdout.flush()
        collected[workload] = runs
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [run[name] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            mark = "FAIL" if spread > bound else "wide" if spread > bound / 3 else "ok"
            line = (
                f"  {workload:18s} {name:18s} median {median:12.6g} spread {spread:7.4f} "
                f"bound {bound:5.3f} {mark}"
            )
            if workload in earlier:
                before = statistics.median(run[name] for run in earlier[workload])
                change = (median - before) / before
                worse = change if metric["better"] == "lower" else -change
                line += f"  vs earlier {before:.6g} ({worse:+.4f} worse)"
                if worse > bound:
                    line += " WORSE"
                    bad += 1
            if mark == "FAIL":
                bad += 1
            print(line)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(collected, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
