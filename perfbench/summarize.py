"""Repeat the benchmark over sets of seeds and summarise the runs in one JSON file.

    python3 perfbench/summarize.py --seeds 1-10 11-20 --out perfbench/results/baseline.json

For each set of seeds and each workload in BENCHMARK.json: one untraced
run per seed; then one traced run per workload on the first seed of the
first set. Each end-to-end metric gets its values, median, quartiles
(`statistics.quantiles(values, n=4)`) and spread, the distance between
the quartiles as a share of the median. Every set after the first is
compared with the first: by how much its median is worse, and whether
that and its spread (not judged for `setup_s`) stay within the metric's
bound. Runs one process at a time, from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-out") as tmp:
        out = Path(tmp) / "result.json"
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--out", str(out)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return json.loads(out.read_text(encoding="utf-8"))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def measure_set(spec: dict, seeds: list[int]) -> dict:
    out = {}
    for w in spec["workloads"]:
        runs = [run(w["name"], seed, spec["run_seconds"], 0) for seed in seeds]
        out[w["name"]] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **summary(
                    [r["result"]["metrics"][m["name"]]["value"] for r in runs])}
                for m in spec["end_to_end"]
            },
            "notes": [r["notes"] for r in runs],
            "env": runs[0]["env"],
        }
        print(f"seeds {seeds[0]}-{seeds[-1]} {w['name']}: " + ", ".join(
            f"{name} {s['median']:.4g} (spread {s['spread']:.3f})"
            for name, s in out[w["name"]]["end_to_end"].items()), flush=True)
    return out


def agreement(spec: dict, first: dict, later: dict) -> dict:
    out = {}
    for w in spec["workloads"]:
        rows = {}
        for m in spec["end_to_end"]:
            a = first[w["name"]]["end_to_end"][m["name"]]
            b = later[w["name"]]["end_to_end"][m["name"]]
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if m["better"] == "lower" else -change
            spread_ok = m["name"] == "setup_s" or b["spread"] <= m["bound"]
            rows[m["name"]] = {"bound": m["bound"], "worse_than_first_by": worse,
                               "within_bound": worse <= m["bound"] and spread_ok}
        out[w["name"]] = rows
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=parse_seeds, nargs="+", default=[parse_seeds("1-10")],
                   help="one or more sets of seeds, each `lo-hi` or `a,b,c`")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    (ROOT / ".perfbench-out").mkdir(exist_ok=True)

    sets = [{"seeds": seeds, "workloads": measure_set(spec, seeds)} for seeds in args.seeds]
    seed = args.seeds[0][0]
    traced = {}
    for w in spec["workloads"]:
        r = run(w["name"], seed, spec["run_seconds"], 1)
        traced[w["name"]] = {"seed": seed, "correct": r["result"]["correct"],
                             "failed": r["result"]["failed"],
                             "metrics": r["result"]["metrics"], "notes": r["notes"]}
    doc = {
        "seconds": spec["run_seconds"],
        "sets": sets,
        "agreement_with_first_set": [
            agreement(spec, sets[0]["workloads"], s["workloads"]) for s in sets[1:]],
        "traced": traced,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
