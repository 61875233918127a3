"""matchlab benchmark: run one workload through `matchlab experiment` for a
fixed time, check every report it writes, and print its metrics.

    python3 perfbench/run.py --workload full-lists --seed 1 --seconds 45 --trace 0

The workload runs in this process, one CLI invocation (a batch of Monte
Carlo runs, `--jobs 1`) after another, until `--seconds` have passed.
`--trace 0` reports the end-to-end metrics; `--trace 1` is a separate run
with spans around each layer and reports the per-layer metrics.  Metric
names and units are those of BENCHMARK.json at the repository root.  The
last line of standard output is the result; the line before it records the
environment and the per-batch figures, which are also written, with the
spans, under perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, suite_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def setup_probe(workload) -> float:
    """Seconds from spawning a fresh interpreter to the start of its first run."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload.name],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def _reject_constant(name: str):
    raise ValueError(f"summary.json is not strict JSON: it holds {name}")


def output_errors(workload, out: Path, seed: int, code: int, check_digest: bool) -> list[str]:
    """Everything wrong with one invocation's exit code and reports."""
    errors = [] if code == 0 else [f"matchlab exited with code {code}"]
    try:
        report = (out / "report.csv").read_bytes()
        summary_bytes = (out / "summary.json").read_bytes()
        summary = json.loads(summary_bytes, parse_constant=_reject_constant)
        if summary["config"]["seed"] != seed or len(summary["run_seeds"]) != workload.runs:
            errors.append("summary.json does not echo the requested seed and runs")
        errors += workload.invariant_errors(summary)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return errors + [f"{type(exc).__name__}: {exc}"]
    rows = report.count(b"\n") - 1
    if rows != workload.runs * workload.rows_per_run:
        errors.append(f"report.csv has {rows} rows, expected {workload.runs * workload.rows_per_run}")
    if check_digest:
        for name, data, want in (("report.csv", report, workload.report_sha256),
                                 ("summary.json", summary_bytes, workload.summary_sha256)):
            got = hashlib.sha256(data).hexdigest()
            if got != want:
                errors.append(f"{name} sha256 {got} differs from the recorded {want}")
    return errors


def measure(workload, bench_seed: int, seconds: float, tracer) -> tuple[list[dict], dict]:
    """Run batches until `seconds` have passed; return per-batch figures and,
    when traced, the counters of batch 0."""
    from matchlab import cli

    batches: list[dict] = []
    batch0: dict = {}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        deadline = time.monotonic() + seconds
        while not batches or time.monotonic() < deadline:
            k = len(batches)
            seed = suite_seed(bench_seed, k)
            out = Path(tmp) / f"batch{k}"
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(workload.cli_args(seed, str(out)))
                elapsed = time.perf_counter() - start
            errors = output_errors(workload, out, seed, code,
                                   check_digest=bench_seed == DEFAULT_SEED and k == 0)
            shutil.rmtree(out, ignore_errors=True)
            batches.append({"seed": seed, "seconds": elapsed, "errors": errors})
            if tracer is not None and k == 0:
                from tracing import market_mb

                batch0 = dict(tracer.counts, dense_mb=market_mb(tracer.first_market))
                tracer.first_market = None
    return batches, batch0


def layer_values(workload, tracer, batch0: dict, runs: int, rate: float) -> dict:
    """Per-layer metrics of a traced run; times are self times per Monte Carlo run."""
    missing = [n for n in workload.expected_spans if tracer.counts[f"{n}.calls"] == 0]
    if missing:
        raise SystemExit(f"error: traced run recorded no call to {', '.join(missing)}")
    selfs = tracer.self_times()

    def per_run(*names: str) -> float:
        return sum(selfs.get(n, 0.0) for n in names) / runs

    from matchlab.market import LEFT, RIGHT, generate_market

    args, kwargs = tracer.first_market_call
    market = generate_market(*args, **kwargs)

    def cold(fill) -> float:
        start = time.perf_counter()
        for side in (LEFT, RIGHT):
            fill(side)
        return time.perf_counter() - start

    # utilities first: the preference order sorts the cached utilities
    utility_cold = cold(market.utility_matrix)
    pref_cold = cold(market.preference_order)

    cells = batch0.get("analysis.cells", 0)
    return {
        "engine.run_da.self_s": per_run("engine.run_da"),
        "engine.run_da.calls": batch0["engine.run_da.calls"],
        "engine.proposals": batch0["engine.proposals"],
        "engine.proposals_per_s": tracer.counts["engine.proposals"] / selfs["engine.run_da"],
        "engine.useful_ratio": batch0["engine.matched_pairs"] / batch0["engine.proposals"],
        "engine.verify_stability.self_s": per_run("engine.verify_stability"),
        "market.generate_market.self_s": per_run("market.generate_market"),
        "market.utility_cold_s": utility_cold,
        "market.pref_cold_s": pref_cold,
        "market.dense_mb": batch0["dense_mb"],
        "analysis.acceptable_edges.self_s": per_run("analysis.acceptable_edges"),
        "analysis.edges_kept": batch0.get("analysis.edges_kept", 0),
        "analysis.edge_density": batch0.get("analysis.edges_kept", 0) / cells if cells else 0.0,
        "experiments.self_s": per_run("experiments.run_experiment"),
        "cli.write_s": per_run("cli.write_csv", "cli.write_json"),
        "trace.runs_per_s": rate,
    }


def environment(nproc: int) -> dict:
    import numpy

    def command(*argv: str) -> str | None:
        try:
            done = subprocess.run(argv, capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return done.stdout.strip() or None

    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    l3 = command("getconf", "LEVEL3_CACHE_SIZE")
    return {
        "git_sha": command("git", "-C", str(ROOT), "rev-parse", "HEAD")
        if (ROOT / ".git").exists() else None,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "l3_bytes": int(l3) if l3 and l3.isdigit() else None,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "matchlab" / "__init__.py").is_file():
        print(f"error: no matchlab sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # pinned before numpy is first imported, here and in the probes
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    setup = [] if args.trace else [setup_probe(workload) for _ in range(SETUP_PROBES)]

    sys.path.insert(0, str(SRC))
    import matchlab

    if Path(matchlab.__file__).resolve().parent != SRC / "matchlab":
        print(f"error: imported matchlab from {matchlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    batches, batch0 = measure(workload, args.seed, args.seconds, tracer)
    runs = workload.runs * len(batches)
    failed = workload.runs * sum(1 for b in batches if b["errors"])
    # total runs over total time, not a median of batch rates: the host
    # switches between a fast and a slow state every few seconds, and a
    # median jumps between the two where a mean moves with their mixture
    rate = runs / sum(b["seconds"] for b in batches)
    if tracer is None:
        values = {
            "runs_per_s": rate,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
            "pass_frac": 1.0 - failed / runs,
        }
    else:
        values = layer_values(workload, tracer, batch0, runs, rate)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(values):
        raise SystemExit(f"error: metrics {sorted(set(units) ^ set(values))} "
                         f"disagree with BENCHMARK.json {kind}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(nproc),
        "setup_s": setup,
        "batches": batches,
        "values": values,
    }
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    if tracer is not None:
        origin = tracer.spans[0][2]
        record["spans"] = [[n, p, s - origin, e - origin] for n, p, s, e in tracer.spans]
    with open(results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: v for k, v in record.items() if k != "spans"}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runs,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
