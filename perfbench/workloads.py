"""The benchmark's workloads: the CLI arguments each one passes, the spans it
must hit when traced, and the checks its reports must pass.

Every workload runs one experiment suite through `matchlab experiment` with
lambda = 0.8 and `--jobs 1`.  Why each was chosen, and which end-to-end
metric each layer should move on it, is in RATIONALE.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass

# Batch 0 of this benchmark seed is compared byte for byte against the
# digests below; every other batch and seed is checked through the suite's
# own invariants.
DEFAULT_SEED = 0


def suite_seed(bench_seed: int, batch: int) -> int:
    """The `--seed` passed to batch `batch` of a run with `bench_seed`."""
    return bench_seed * 10_000 + batch


@dataclass(frozen=True)
class Workload:
    name: str
    suite: str
    argv: tuple[str, ...]
    # Monte Carlo runs per CLI invocation (one batch)
    runs: int
    # report.csv rows per Monte Carlo run
    rows_per_run: int
    # traced spans this suite must record at least once
    expected_spans: tuple[str, ...]
    # SHA-256 of report.csv and summary.json for batch 0 of DEFAULT_SEED
    report_sha256: str
    summary_sha256: str

    def cli_args(self, seed: int, out: str) -> list[str]:
        return ["experiment", self.suite, *self.argv, "--runs", str(self.runs),
                "--seed", str(seed), "--jobs", "1", "--out", out]

    def invariant_errors(self, summary: dict) -> list[str]:
        """The suite's own correctness invariants on a parsed summary."""
        s = summary["summary"]
        if self.suite == "min-L":
            errors = []
            if s["verified"] is not True:
                errors.append("min-L result not verified")
            if s["sentinel"] is not False:
                errors.append("min-L returned the grid sentinel")
            return errors
        if s["blocking_pairs_total"] != 0:
            return [f"{s['blocking_pairs_total']} blocking pairs"]
        return []


_COMMON = ("market.generate_market", "engine.run_da", "experiments.run_experiment",
           "cli.write_csv", "cli.write_json")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="full-lists",
            suite="unique-partners",
            argv=("--n", "2000", "--lambda", "0.8"),
            runs=1,
            rows_per_run=10,
            expected_spans=_COMMON + ("engine.verify_stability",),
            report_sha256="82bf86b6d48e696d29c4632afc40b16480e2980e17a02c1a5ad148aae80a5c69",
            summary_sha256="7b0ba01057547b81b8bb44569fe86351ba10a453a3baa05ea1fc3ee4a9489ec1",
        ),
        Workload(
            name="sparse-edges",
            suite="min-L",
            argv=("--n", "4000", "--lambda", "0.8", "--sigma-rule", "theory"),
            # two runs per batch, so the suite re-verifies the larger first_L
            # against the other run whenever the two differ
            runs=2,
            rows_per_run=1,
            expected_spans=_COMMON + ("analysis.acceptable_edges",),
            report_sha256="ae6d0e06607e6a61b8e8917354f1823e7f3112fc864ef369ad2d1b6d5c7df210",
            summary_sha256="14a8bf11c723c7193e7630b4dcdcd4135493f9efd563f96bcc2123a3219d17b9",
        ),
    )
}
