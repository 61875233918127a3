"""Spans around the public calls that `matchlab.cli` and `matchlab.experiments`
make into each layer, kept in memory and summarised when the run ends.

The wrappers replace names in the namespace that calls them (for example
`matchlab.experiments.run_da`), so nothing inside the package changes.  A
lazy `Market` cache is filled inside whichever wrapped call first needs it,
so its cost is charged to that call's self time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

import matchlab.cli
import matchlab.experiments
from matchlab.market import LEFT, RIGHT


def _count_da(tracer: "Tracer", call, result) -> None:
    tracer.counts["engine.proposals"] += int(result.proposal_counts.sum())
    tracer.counts["engine.matched_pairs"] += len(result.pairs())


def _count_edges(tracer: "Tracer", call, result) -> None:
    tracer.counts["analysis.edges_kept"] += result.edge_count
    tracer.counts["analysis.cells"] += result.n_left * result.n_right


def _keep_first_market(tracer: "Tracer", call, result) -> None:
    if tracer.first_market_call is None:
        tracer.first_market_call = call
        tracer.first_market = result


# (owner, attribute, span name, counter run on ((args, kwargs), result))
_WRAPPED = (
    (matchlab.experiments, "generate_market", "market.generate_market", _keep_first_market),
    (matchlab.experiments, "run_da", "engine.run_da", _count_da),
    (matchlab.experiments, "verify_stability", "engine.verify_stability", None),
    (matchlab.experiments, "acceptable_edges", "analysis.acceptable_edges", _count_edges),
    (matchlab.cli, "run_experiment", "experiments.run_experiment", None),
    (matchlab.experiments.ExperimentReport, "write_csv", "cli.write_csv", None),
    (matchlab.experiments.ExperimentReport, "write_json", "cli.write_json", None),
)


class Tracer:
    """Records one span per wrapped call: [name, parent index, start, end]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        # the run's first market and the arguments that generated it
        self.first_market = None
        self.first_market_call = None

    def install(self) -> None:
        """Replace every wrapped name; a renamed target raises AttributeError."""
        for owner, attr, name, counter in _WRAPPED:
            setattr(owner, attr, self._wrap(name, getattr(owner, attr), counter))

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            self.counts[f"{name}.calls"] += 1
            if counter is not None:
                # a span of its own, so counting is not charged to the caller
                start = time.perf_counter()
                counter(self, (args, kwargs), result)
                self.spans.append(["trace.count", span[1], start, time.perf_counter()])
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, start, end), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out


def market_mb(market) -> float:
    """Computed size (nbytes, not measured RSS) of the arrays a market holds,
    as attributes or as values of a dict attribute, lazy caches included.

    Call it on a market that DA or an edge builder has used: both utility
    matrices must then be among the arrays found, or the run exits, so that
    a cache moved out of reach cannot read as a saving.
    """
    held = []
    for value in vars(market).values():
        held += [v for v in (value.values() if isinstance(value, dict) else (value,))
                 if isinstance(v, np.ndarray)]
    mb = sum(a.nbytes for a in held) / 2**20
    for side in (LEFT, RIGHT):
        if not any(np.shares_memory(market.utility_matrix(side), a) for a in held):
            raise SystemExit(f"error: market.dense_mb found no cached {side} utility matrix")
    return mb
