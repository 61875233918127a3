"""Record a baseline: run every workload untraced on several seeds and traced
on a few, and write medians, quartiles and spreads to one JSON file.

    python3 perfbench/baseline.py --out perfbench/BENCH_baseline.json

The spread of a metric is the distance between the first and third quartile
of its per-seed values (`statistics.quantiles(values, n=4)`) as a share of
their median.  The bound of each end-to-end metric in BENCHMARK.json caps
that spread for every metric but setup_s, and caps for every metric the
change of its median from one recording to the next.  Traced runs are made twice on the default seed, whose counts must
agree exactly, and once on each of the first three seeds, which gives the
tracing overhead against the untraced runs on the same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run's result line, with its environment record added."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    *_, record, result = done.stdout.splitlines()
    return dict(json.loads(result), env=json.loads(record)["env"])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def checks(name: str, layers: dict) -> dict:
    """What each workload was chosen for, read off the traced self times."""
    selfs = {m: v["median"] for m, v in layers.items() if v["unit"] == "s/run"}
    out = {"largest_self_time": max(selfs, key=selfs.get)}
    if name == "sparse-edges":
        out["edges_plus_generation_exceed_da"] = (
            selfs["analysis.acceptable_edges.self_s"] + selfs["market.generate_market.self_s"]
            > selfs["engine.run_da.self_s"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "MB")]

    out = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for name in WORKLOADS:
        untraced = {seed: run(name, seed, seconds, 0) for seed in SEEDS}
        trace_seeds = [DEFAULT_SEED, DEFAULT_SEED, *SEEDS[:3]]
        traced = [run(name, seed, seconds, 1) for seed in trace_seeds]
        for m in exact:
            if traced[0]["metrics"][m]["value"] != traced[1]["metrics"][m]["value"]:
                raise SystemExit(f"error: {name}: {m} differs between two traced runs of one seed")

        e2e = {}
        for m in spec["end_to_end"]:
            e2e[m["name"]] = quartiles([r["metrics"][m["name"]]["value"] for r in untraced.values()])
            e2e[m["name"]].update(unit=m["unit"], bound=m["bound"])
        layers = {}
        for m in spec["per_layer"]:
            values = [t["metrics"][m["name"]]["value"] for t in traced]
            layers[m["name"]] = {"median": statistics.median(values), "unit": m["unit"],
                                 "default_seed": values[0]}
        rate = statistics.median(untraced[s]["metrics"]["runs_per_s"]["value"] for s in SEEDS[:3])
        traced_rate = statistics.median(t["metrics"]["trace.runs_per_s"]["value"] for t in traced[2:])
        runs = list(untraced.values()) + traced
        out["workloads"][name] = {
            "env": runs[0]["env"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "end_to_end": e2e,
            "per_layer": layers,
            "tracing_overhead": rate / traced_rate - 1.0,
            "checks": checks(name, layers),
        }
        print(json.dumps({name: {k: round(v["spread"], 4) for k, v in e2e.items()}}), flush=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
