"""Monte Carlo experiment harness with reproducible CSV/JSON reports.

Every experiment derives one seed per run from the base seed, so identical
configs produce byte-identical reports.  Rows go to CSV (one row per
(run, decile) or per run); aggregate statistics and the config echo go to a
JSON summary.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .analysis import (
    InterviewParams,
    acceptable_edges,
    acceptable_entry_levels,
    achieved_utilities,
    benchmark_vector,
    interview_edges,
    loss_params_from_bound,
    lower_bound_loss_level,
    theoretical_loss_params,
    truncated_edges,
    _bottom_zone,
    _loss_params,
    _truncation_thresholds,
)
from .engine import EdgeSet, max_bipartite_matching, run_da, verify_stability
from .market import (
    LEFT,
    MODEL_REGISTRY,
    RIGHT,
    SIDES,
    Market,
    generate_market,
    linear_model,
    other_side,
)

__all__ = [
    "EXPERIMENTS",
    "SHARED_FIELDS",
    "ExperimentConfig",
    "ExperimentReport",
    "agent_deciles",
    "decile_labels",
    "derive_run_seed",
    "exp_edge_counts",
    "exp_interview",
    "exp_loss_scaling",
    "exp_lower_bound",
    "exp_min_L",
    "exp_truncation",
    "exp_unique_partners",
    "run_experiment",
]


def derive_run_seed(base_seed: int, run_index: int) -> int:
    """Distinct deterministic seed for one run of an experiment."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(run_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def decile_labels(n: int) -> np.ndarray:
    """Rank position -> decile index 0..9 (0 = top); sizes differ by <= 1."""
    return (np.arange(n) * 10) // n


def agent_deciles(market: Market, side: str) -> np.ndarray:
    """Per-agent decile index 0..9 of `side` by public rating (0 = top)."""
    return decile_labels(market.n(side))[market.agent_rank(side)]


# the market and run fields every suite reads; EXPERIMENTS lists the rest
SHARED_FIELDS = ("n_left", "n_right", "cap_left", "cap_right", "weight", "model_name",
                 "rating_ranges", "runs", "seed", "jobs")


@dataclass(frozen=True)
class ExperimentConfig:
    """One suite's configuration.  A suite reads SHARED_FIELDS and the fields
    EXPERIMENTS lists for it; every other field must keep its default.  All
    fields are echoed into the report's config."""

    experiment: str
    n_left: int = 1000
    n_right: int | None = None
    cap_left: int = 1
    cap_right: int = 1
    weight: float = 0.8
    model_name: str | None = None
    runs: int = 20
    seed: int = 0
    jobs: int = 1
    proposing_side: str = LEFT
    rating_ranges: str = "auto"
    bottom_frac: float = 0.2
    # loss-threshold edge sets
    loss_cap_left: float | None = None
    loss_cap_right: float | None = None
    sigma_left: float = 0.0
    sigma_right: float = 0.0
    # bottom-zone rule for the minimal-L search: "theory" pairs each grid
    # value L with sigma = 3L/(4 mu); "fixed" uses sigma_left/sigma_right
    sigma_rule: str = "theory"
    # minimal-L grid
    grid_start: float = 0.01
    grid_stop: float = 0.50
    grid_step: float = 0.01
    # interview protocol
    rating_window: float = 0.19
    score_cutoff: float = 0.60
    # loss scaling
    n_values: tuple[int, ...] = (500, 4000)
    exceedance_n: int | None = 2000
    h_values: tuple[int, ...] = (0, 1, 2, 3, 4)
    failure_exponent: float = 1.0
    bottom_sigma: float | None = None
    # truncation strategies
    nu: float = 0.5
    eta: float = 2.0
    loss_bound: float | None = None
    # selected edge set
    expected_degree: float = 15.0

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"known: {', '.join(sorted(EXPERIMENTS))}")
        reads = SHARED_FIELDS + EXPERIMENTS[self.experiment].fields
        for f in fields(self)[1:]:  # past the suite name
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.experiment} does not read {f.name}; "
                                 f"leave it at {f.default!r}")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if self.n_left < 1 or (self.n_right is not None and self.n_right < 1):
            raise ValueError("both sides need at least one agent")
        if self.proposing_side not in SIDES:
            raise ValueError(f"proposing_side must be one of {SIDES}, got {self.proposing_side!r}")
        if self.sigma_rule not in ("theory", "fixed"):
            raise ValueError(f"sigma_rule must be 'theory' or 'fixed', got {self.sigma_rule!r}")
        if not self.grid_step > 0:
            raise ValueError(f"grid_step must be positive, got {self.grid_step}")
        if self.grid_start > self.grid_stop:
            raise ValueError(f"grid_start {self.grid_start} exceeds grid_stop {self.grid_stop}")
        if self.exceedance_n is not None and self.exceedance_n < 2:
            raise ValueError(f"exceedance_n must be at least 2, the smallest n with a loss "
                             f"bound, got {self.exceedance_n}")

    def model(self):
        if self.model_name is not None:
            return MODEL_REGISTRY[self.model_name]
        return linear_model(self.weight)

    def sides(self) -> tuple[int, int]:
        return self.n_left, self.n_left if self.n_right is None else self.n_right

    def make_market(self, run_index: int, n_left: int | None = None) -> Market:
        nl, nr = self.sides()
        if n_left is not None:
            nl = nr = n_left
        return generate_market(nl, nr, self.cap_left, self.cap_right, model=self.model(),
                               seed=derive_run_seed(self.seed, run_index),
                               rating_ranges=self.rating_ranges)


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    run_seeds: list[int]
    rows: list[dict]
    summary: dict

    def write_csv(self, path) -> None:
        write_csv_rows(self.rows, path)

    def write_json(self, path) -> None:
        write_strict_json({
            "experiment": self.experiment,
            "config": self.config,
            "run_seeds": self.run_seeds,
            "summary": self.summary,
        }, path)


def write_csv_rows(rows: list[dict], path) -> None:
    """Write dict rows as CSV; the header lists every key in first-seen order
    and a row missing a key leaves its cell empty."""
    fields = list(dict.fromkeys(key for row in rows for key in row))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        writer.writerows({k: _plain(v) for k, v in row.items()} for row in rows)


def write_strict_json(obj, path) -> None:
    """Write `obj` as strict JSON, indented with sorted keys; NaN and
    infinities become null, since JSON has no value for them."""
    with open(path, "w") as fh:
        json.dump(_strict(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _strict(value):
    value = _plain(value)
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _plain(value):
    """A numpy scalar or array as the matching Python value or list."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    return value


def _report(config: ExperimentConfig, rows: list[dict], summary: dict) -> ExperimentReport:
    return ExperimentReport(
        experiment=config.experiment,
        config={k: _plain(v) for k, v in asdict(config).items()},
        run_seeds=[derive_run_seed(config.seed, i) for i in range(config.runs)],
        rows=rows,
        summary=summary,
    )


def _map_runs(worker, config: ExperimentConfig, tasks=None) -> list:
    """`worker(config, *task)` for every task, in task order, spread over
    `config.jobs` processes.  The default tasks are the run indices."""
    if tasks is None:
        tasks = [(i,) for i in range(config.runs)]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            return list(pool.map(worker, itertools.repeat(config), *zip(*tasks)))
    return [worker(config, *task) for task in tasks]


def _decile_stats(values: np.ndarray, deciles: np.ndarray) -> list[dict]:
    """Size, mean, min and max of `values` in each decile; NaN when empty."""
    out = []
    for d in range(10):
        sel = values[deciles == d]
        mean, lo, hi = (sel.mean(), sel.min(), sel.max()) if sel.size else (np.nan,) * 3
        out.append({"decile": d + 1, "size": sel.size,
                    "mean": float(mean), "min": float(lo), "max": float(hi)})
    return out


def _decile_counts(flags: np.ndarray, deciles: np.ndarray) -> tuple[list[int], list[int]]:
    """Per-decile count of the flagged agents, and per-decile size."""
    return (np.bincount(deciles[flags], minlength=10).tolist(),
            np.bincount(deciles, minlength=10).tolist())


def _decile_rows(results: list[dict], metric: str) -> list[dict]:
    """One report row per (run, decile): the run's count as `metric`, and the
    decile size."""
    return [{"run": r["run"], "decile": d + 1, metric: r["per_decile"][d], "size": r["sizes"][d]}
            for r in results for d in range(10)]


def _mean_per_decile(results: list[dict]) -> list[float]:
    return [float(np.mean([r["per_decile"][d] for r in results])) for d in range(10)]


def _fraction(part, whole) -> float:
    """`part / whole`; NaN when `whole` is zero."""
    return part / whole if whole else float("nan")


def _nanmean(values) -> float:
    """Mean of the values that are not NaN; NaN, with no numpy warning, when
    none are."""
    values = np.asarray(values, dtype=float)
    return float(np.nanmean(values)) if not np.isnan(values).all() else float("nan")


def _top_mask(rank: np.ndarray, frac: float) -> np.ndarray:
    """Agents in the top `frac` of ranks (rank 0 = best)."""
    return rank < int(len(rank) * frac)


# ---------------------------------------------------------------------------
# edge counts (acceptable-list lengths and proposals made)


def _edge_counts_run(config: ExperimentConfig, run_index: int) -> dict:
    market = config.make_market(run_index)
    cap_right = config.loss_cap_left if config.loss_cap_right is None else config.loss_cap_right
    edges = acceptable_edges(market, config.loss_cap_left, cap_right,
                             config.sigma_left, config.sigma_right)
    prop = config.proposing_side
    degrees = edges.degrees(prop).astype(float)
    matching = run_da(market, prop, edges)
    proposals = matching.proposal_counts.astype(float)
    dec = agent_deciles(market, prop)
    top = _top_mask(market.agent_rank(prop), 1.0 - config.bottom_frac)
    return {
        "run": run_index,
        "list_by_decile": _decile_stats(degrees, dec),
        "proposals_by_decile": _decile_stats(proposals, dec),
        "top_list_mean": _nanmean(degrees[top]),
        "top_proposals_mean": _nanmean(proposals[top]),
        "all_matched": _everyone_matched(matching),
        "blocking_pairs": len(verify_stability(market, edges, matching)),
    }


def exp_edge_counts(config: ExperimentConfig) -> ExperimentReport:
    """Acceptable-edge list lengths and proposals made, by proposer decile."""
    if config.loss_cap_left is None:
        raise ValueError("edge-counts needs loss_cap_left (and optionally loss_cap_right)")
    results = _map_runs(_edge_counts_run, config)
    kinds = ("list", "proposals")
    rows = [{"run": res["run"], "metric": kind, **st}
            for res in results for kind in kinds for st in res[f"{kind}_by_decile"]]
    decile_summary = []
    for d in range(10):
        entry = {"decile": d + 1}
        for kind in kinds:
            per_run = [res[f"{kind}_by_decile"][d] for res in results]
            for stat, reduce in (("mean", np.mean), ("min", np.min), ("max", np.max)):
                entry[f"{kind}_{stat}"] = float(reduce([st[stat] for st in per_run]))
        decile_summary.append(entry)
    summary = {
        "deciles": decile_summary,
        "top_list_mean": float(np.mean([r["top_list_mean"] for r in results])),
        "top_proposals_mean": float(np.mean([r["top_proposals_mean"] for r in results])),
        "all_matched_fraction": float(np.mean([r["all_matched"] for r in results])),
        "top_frac": 1.0 - config.bottom_frac,
        "blocking_pairs_total": int(sum(r["blocking_pairs"] for r in results)),
    }
    return _report(config, rows, summary)


# ---------------------------------------------------------------------------
# minimal loss threshold with everyone matched


def _loss_grid(config: ExperimentConfig) -> np.ndarray:
    # steps up to grid_stop, never past it; the tolerance keeps a stop that
    # division lands just short of: (0.50 - 0.01) / 0.01 = 48.99999999999999
    count = math.floor((config.grid_stop - config.grid_start) / config.grid_step + 1e-9) + 1
    return np.round(config.grid_start + config.grid_step * np.arange(count), 10)


def _zone_widths(config: ExperimentConfig, market: Market, caps):
    """Bottom-zone widths (left, right) that go with loss cap(s) `caps`, a
    float or an array, under the config's sigma rule; "theory" takes the
    loss params' sigma bound."""
    if config.sigma_rule == "theory":
        sigma = loss_params_from_bound(caps, market.model).sigma_bound
        return sigma, sigma
    return np.full(np.shape(caps), config.sigma_left), np.full(np.shape(caps), config.sigma_right)


def _everyone_matched(matching) -> bool:
    return bool(matching.matched_mask(LEFT).all() and matching.matched_mask(RIGHT).all())


# the min-L scan's first span of grid indices; each later span is twice as long
_FIRST_SPAN = 8


def _min_L_run(config: ExperimentConfig, run_index: int, start: int = 0) -> dict:
    """First grid index at or above `start` whose acceptable set matches
    everyone in one market.

    The acceptable sets grow with the grid value, so the scan builds one set
    at the top of a span of grid indices and gives each of its edges the
    index where it enters.  A level below some agent's first edge leaves
    that agent without an edge and is skipped; every other level runs DA on
    the edges entered by then, the set `acceptable_edges` builds there.  A
    rescan (`start` above 0) first tests the set at `start` alone, which a
    one-to-one market always passes, and scans on from `start + 1` only
    when it fails.  (An edge entering above a level ranks, for one endpoint,
    below all its edges there, so a perfect stable matching stays stable;
    by the rural-hospitals theorem every stable matching is then perfect.)
    """
    market = config.make_market(run_index)
    grid = _loss_grid(config)
    if start > 0:
        sigma_l, sigma_r = _zone_widths(config, market, grid[start])
        edges = acceptable_edges(market, float(grid[start]), float(grid[start]), sigma_l, sigma_r)
        if _everyone_matched(run_da(market, config.proposing_side, edges)):
            return {"run": run_index, "first_L": float(grid[start]), "grid_index": start,
                    "matched": True}
        start += 1
    lo, stop = 0, _FIRST_SPAN
    while stop <= start:  # on to the span that holds `start`
        lo, stop = stop, 2 * stop
    while max(lo, start) < len(grid):
        caps = grid[:stop]
        top = caps.size - 1
        sigma_l, sigma_r = _zone_widths(config, market, caps)
        superset = acceptable_edges(market, float(caps[top]), float(caps[top]),
                                    sigma_l[top], sigma_r[top])
        flat, level = acceptable_entry_levels(market, caps, sigma_l, sigma_r, superset)
        # each agent's first level with an edge; below the largest, some
        # agent has none and stays unmatched
        first = {side: np.full(market.n(side), caps.size, dtype=level.dtype) for side in (LEFT, RIGHT)}
        np.minimum.at(first[LEFT], flat // market.n_right, level)
        np.minimum.at(first[RIGHT], flat % market.n_right, level)
        lowest = int(max(first[LEFT].max(), first[RIGHT].max()))
        for idx in range(max(lo, start, lowest), caps.size):
            edges = EdgeSet(flat[level <= idx], market.n_left, market.n_right)
            if _everyone_matched(run_da(market, config.proposing_side, edges)):
                return {"run": run_index, "first_L": float(grid[idx]), "grid_index": idx,
                        "matched": True}
        lo, stop = stop, 2 * stop
    return {"run": run_index, "first_L": float(grid[-1]), "grid_index": len(grid) - 1, "matched": False}


def exp_min_L(config: ExperimentConfig) -> ExperimentReport:
    """Smallest grid loss threshold that matches every agent in every run.

    Returns the grid maximum as a sentinel when no grid value suffices.
    Each run is scanned upward to its first sufficient threshold.  The
    candidate, the largest of these, is then re-verified: every run whose
    last scan stopped below it is scanned again from the candidate, the
    candidate moves to the largest index those scans return, and this
    repeats until every run matches at the candidate.
    """
    results = _map_runs(_min_L_run, config)
    grid = _loss_grid(config)
    latest = list(results)  # each run's last scan
    idx = max(r["grid_index"] for r in latest)
    while all(r["matched"] for r in latest):
        below = [(r["run"], idx) for r in latest if r["grid_index"] < idx]
        if not below:
            break
        for r in _map_runs(_min_L_run, config, below):
            latest[r["run"]] = r
        idx = max(r["grid_index"] for r in latest)
    verified = all(r["matched"] for r in latest)
    rows = [{"run": r["run"], "first_L": r["first_L"], "matched": r["matched"]} for r in results]
    summary = {
        "min_L": float(grid[idx]),
        "sentinel": not verified,
        "verified": verified,
        "grid_start": config.grid_start,
        "grid_stop": config.grid_stop,
        "grid_step": config.grid_step,
    }
    return _report(config, rows, summary)


# ---------------------------------------------------------------------------
# unique stable partners


def _unique_partners_run(config: ExperimentConfig, run_index: int) -> dict:
    market = config.make_market(run_index)
    left_opt = run_da(market, LEFT)
    right_opt = run_da(market, RIGHT)
    audit = len(verify_stability(market, None, left_opt)) + len(verify_stability(market, None, right_opt))
    side = other_side(config.proposing_side)  # reported side: the receivers
    multi = left_opt.partner(side) != right_opt.partner(side)
    per_decile, sizes = _decile_counts(multi, agent_deciles(market, side))
    top90 = _top_mask(market.agent_rank(side), 0.9)
    return {
        "run": run_index,
        "per_decile": per_decile,
        "sizes": sizes,
        "top90_count": int(multi[top90].sum()),
        "top90_size": int(top90.sum()),
        "blocking_pairs": audit,
    }


def exp_unique_partners(config: ExperimentConfig) -> ExperimentReport:
    """Counts of agents with more than one stable partner, by decile."""
    side = other_side(config.proposing_side)  # the reported side: one partner per agent
    if (config.cap_left if side == LEFT else config.cap_right) != 1:
        raise ValueError(f"unique-partners reports the receivers' partners: needs --cap-{side} 1")
    results = _map_runs(_unique_partners_run, config)
    summary = {
        "mean_per_decile": _mean_per_decile(results),
        "top90_fraction": _fraction(sum(r["top90_count"] for r in results),
                                    sum(r["top90_size"] for r in results)),
        "bottom_decile_fraction": _fraction(sum(r["per_decile"][9] for r in results),
                                            sum(r["sizes"][9] for r in results)),
        "blocking_pairs_total": int(sum(r["blocking_pairs"] for r in results)),
    }
    return _report(config, _decile_rows(results, "multi_stable"), summary)


# ---------------------------------------------------------------------------
# interview protocol


def _interview_run(config: ExperimentConfig, run_index: int) -> dict:
    market = config.make_market(run_index)
    prop = config.proposing_side
    edges = interview_edges(market, InterviewParams(config.rating_window, config.score_cutoff))
    matching = run_da(market, prop, edges)
    audit = len(verify_stability(market, edges, matching))
    unmatched = ~matching.matched_mask(prop)
    per_decile, sizes = _decile_counts(unmatched, agent_deciles(market, prop))
    full = run_da(market, prop)
    diff = achieved_utilities(market, full, prop) - achieved_utilities(market, matching, prop)
    both = matching.matched_mask(prop) & full.matched_mask(prop)
    return {
        "run": run_index,
        "per_decile": per_decile,
        "sizes": sizes,
        "mean_degree": float(edges.degrees(prop).mean()),
        "diff_quantiles": [float(q) for q in np.quantile(diff[both], [0.5, 0.9, 0.99])] if both.any() else [],
        "blocking_pairs": audit,
    }


def exp_interview(config: ExperimentConfig) -> ExperimentReport:
    """Unmatched counts by decile under the constant-list interview protocol,
    plus the utility gap against the full-edge proposer-optimal match."""
    results = _map_runs(_interview_run, config)
    total_unmatched = sum(sum(r["per_decile"]) for r in results)
    bottom_two = sum(r["per_decile"][8] + r["per_decile"][9] for r in results)
    summary = {
        "unmatched_fraction": total_unmatched / sum(sum(r["sizes"]) for r in results),
        "bottom_two_decile_share": _fraction(bottom_two, total_unmatched),
        "mean_degree": float(np.mean([r["mean_degree"] for r in results])),
        "mean_per_decile": _mean_per_decile(results),
        "diff_quantiles_mean": [
            _nanmean([r["diff_quantiles"][k] for r in results if r["diff_quantiles"]])
            for k in range(3)
        ],
        "blocking_pairs_total": int(sum(r["blocking_pairs"] for r in results)),
    }
    return _report(config, _decile_rows(results, "unmatched"), summary)


# ---------------------------------------------------------------------------
# loss scaling in n


def _non_bottom_losses(config: ExperimentConfig, run_index: int, n: int) -> np.ndarray:
    """Pooled losses of both sides' matched agents outside the bottom zone,
    each side in its pessimal stable matching, in run `run_index` at n x n."""
    market = config.make_market(run_index, n_left=n)
    cutoff = config.bottom_sigma if config.bottom_sigma is not None else config.bottom_frac
    pessimal = {LEFT: run_da(market, RIGHT), RIGHT: run_da(market, LEFT)}  # receivers fare worst
    pooled = []
    for side in (LEFT, RIGHT):
        loss = benchmark_vector(market, side) - achieved_utilities(market, pessimal[side], side)
        vals = loss[~_bottom_zone(market, side, cutoff)]
        pooled.append(vals[~np.isnan(vals)])
    return np.concatenate(pooled)


def _loss_stats(vals: np.ndarray) -> dict:
    """Max, median and 90th percentile of one run's pooled losses; NaN,
    written as null, when every matched agent sits in the bottom zone."""
    if not vals.size:
        return {"max_loss": math.nan, "q50": math.nan, "q90": math.nan}
    return {"max_loss": float(vals.max()), "q50": float(np.quantile(vals, 0.5)),
            "q90": float(np.quantile(vals, 0.9))}


def exp_loss_scaling(config: ExperimentConfig) -> ExperimentReport:
    """Max/quantile pessimal losses of non-bottom agents across market sizes,
    plus the exceedance histogram against halving loss thresholds."""
    scaling = [(run, n) for n in config.n_values for run in range(config.runs)]
    exceedance_runs = [] if config.exceedance_n is None else [
        (run, config.exceedance_n) for run in range(config.runs)]
    pooled = _map_runs(_non_bottom_losses, config, scaling + exceedance_runs)
    results = [{"run": run, "n": n, **_loss_stats(vals), "non_bottom": int(vals.size)}
               for (run, n), vals in zip(scaling, pooled)]
    rows = [{"kind": "scaling", **r} for r in results]

    medians = {n: float(np.median([r["max_loss"] for r in results if r["n"] == n]))
               for n in config.n_values}
    n_small, n_large = min(config.n_values), max(config.n_values)
    large = medians[n_large]
    ratio = medians[n_small] / large if large > 0 or math.isnan(large) else float("inf")
    exponent = (
        math.log(ratio) / math.log(n_large / n_small) if n_small != n_large else float("nan")
    )

    exceedance = None
    if config.exceedance_n is not None:
        loss_bound = theoretical_loss_params(
            config.exceedance_n, config.failure_exponent, config.model()
        ).loss_bound
        counts = {h: [] for h in config.h_values}
        for (run, _), vals in zip(exceedance_runs, pooled[len(scaling):]):
            for h in config.h_values:
                threshold = loss_bound / 2**h
                count = int((vals > threshold).sum())
                counts[h].append(count)
                rows.append({"kind": "exceedance", "run": run, "n": config.exceedance_n,
                             "h": h, "threshold": threshold, "count": count})
        mean_counts = [float(np.mean(counts[h])) for h in config.h_values]
        # thresholds shrink as h grows, so exceedance counts cannot drop
        monotone = all(a <= b for a, b in zip(mean_counts, mean_counts[1:]))
        exceedance = {
            "n": config.exceedance_n,
            "loss_bound": loss_bound,
            "h_values": list(config.h_values),
            "mean_counts": mean_counts,
            "nested_thresholds_monotone": bool(monotone),
        }

    summary = {
        "median_max_loss": {str(n): medians[n] for n in config.n_values},
        "ratio_small_over_large": ratio,
        "fitted_exponent": exponent,
        "exceedance": exceedance,
    }
    return _report(config, rows, summary)


# ---------------------------------------------------------------------------
# lower-bound probe: perfect matching on tight acceptable sets


def _lower_bound_caps(n: int) -> tuple[float, float]:
    """The probe's loss cap and bottom-zone width at n x n."""
    level = lower_bound_loss_level(n)
    return level, 1.5 * level


def _lower_bound_run(config: ExperimentConfig, run_index: int) -> dict:
    market = config.make_market(run_index)
    level, sigma = _lower_bound_caps(market.n_left)
    edges = acceptable_edges(market, level, level, sigma, sigma)
    size = max_bipartite_matching(edges)
    return {
        "run": run_index,
        "max_matching": size,
        "perfect": bool(size == market.n_left),
        "edges": edges.edge_count,
    }


def exp_lower_bound(config: ExperimentConfig) -> ExperimentReport:
    """Frequency of markets whose tight acceptable edge set admits no
    perfect matching (observational probe of the loss-bound tightness).
    The probe asks for a perfect one-to-one matching, so the market must be
    square with unit capacities."""
    n, n_right = config.sides()
    if n != n_right or config.cap_left != 1 or config.cap_right != 1:
        raise ValueError(f"lower-bound needs a square one-to-one market, got {n}x{n_right} "
                         f"with capacities {config.cap_left}/{config.cap_right}")
    results = _map_runs(_lower_bound_run, config)
    rows = [dict(r) for r in results]
    no_perfect = sum(1 for r in results if not r["perfect"])
    level, sigma = _lower_bound_caps(n)
    summary = {
        "loss_level": level,
        "sigma": sigma,
        "no_perfect_fraction": no_perfect / config.runs,
        "reference_floor": 0.25 * n ** (-1.0 / 8.0),
        "mean_edges_per_agent": float(np.mean([r["edges"] for r in results])) / n,
    }
    return _report(config, rows, summary)


# ---------------------------------------------------------------------------
# truncation (reservation) strategies


def _truncation_run(config: ExperimentConfig, run_index: int) -> dict:
    market = config.make_market(run_index)
    n = market.n_left
    params = _loss_params(config.loss_bound, n, config.failure_exponent, market.model)
    shift = 4.0 * params.rating_margin
    sigma_recv = config.nu / n ** (1.0 / 3.0)   # receiver-side bottom zone
    sigma_prop = config.eta / n ** (1.0 / 3.0)  # proposer-side bottom zone
    t_recv = max(1.0, shift / sigma_recv)
    t_prop = max(1.0, shift / sigma_prop)
    prop = config.proposing_side
    t_left, t_right = (t_prop, t_recv) if prop == LEFT else (t_recv, t_prop)
    edges = truncated_edges(market, params, t_left=t_left, t_right=t_right)
    matching = run_da(market, prop, edges)
    blocking = len(verify_stability(market, edges, matching))

    matched = np.concatenate([matching.matched_mask(LEFT), matching.matched_mask(RIGHT)])
    proposals = matching.proposal_counts.astype(float)
    bottom = _bottom_zone(market, prop, sigma_prop)

    thresholds = _truncation_thresholds(market, prop, shift * t_prop**2)
    loss_prop = benchmark_vector(market, prop) - achieved_utilities(market, matching, prop)
    over = matching.matched_mask(prop) & ~np.isnan(thresholds) & (loss_prop > thresholds + 1e-12)
    return {
        "run": run_index,
        "match_rate": float(matched.mean()),
        "bottom_mean_proposals": float(proposals[bottom].mean()) if bottom.any() else float("nan"),
        "rest_mean_proposals": float(proposals[~bottom].mean()) if (~bottom).any() else float("nan"),
        "edges_per_proposer": float(edges.degrees(prop).mean()),
        "over_threshold": int(over.sum()),
        "blocking_pairs": blocking,
        "t_left": t_left,
        "t_right": t_right,
    }


def exp_truncation(config: ExperimentConfig) -> ExperimentReport:
    """Match rates and proposal counts when both sides truncate edges beyond
    their rank-dependent reservation losses."""
    if config.loss_bound is None and config.n_left < 2:
        raise ValueError(f"truncation needs n_left >= 2 or a loss_bound, got n_left {config.n_left}")
    results = _map_runs(_truncation_run, config)
    rows = [dict(r) for r in results]
    summary = {
        "match_rate_mean": float(np.mean([r["match_rate"] for r in results])),
        "bottom_mean_proposals": _nanmean([r["bottom_mean_proposals"] for r in results]),
        "rest_mean_proposals": _nanmean([r["rest_mean_proposals"] for r in results]),
        "over_threshold_total": int(sum(r["over_threshold"] for r in results)),
        "blocking_pairs_total": int(sum(r["blocking_pairs"] for r in results)),
        "t_left": results[0]["t_left"],
        "t_right": results[0]["t_right"],
    }
    return _report(config, rows, summary)


class Suite(NamedTuple):
    run: Callable[[ExperimentConfig], ExperimentReport]
    # the config fields it reads beyond SHARED_FIELDS
    fields: tuple[str, ...]


EXPERIMENTS = {
    "edge-counts": Suite(exp_edge_counts, ("proposing_side", "loss_cap_left", "loss_cap_right",
                                           "sigma_left", "sigma_right", "bottom_frac")),
    "min-L": Suite(exp_min_L, ("proposing_side", "sigma_rule", "sigma_left", "sigma_right",
                               "grid_start", "grid_stop", "grid_step")),
    "unique-partners": Suite(exp_unique_partners, ("proposing_side",)),
    "interview": Suite(exp_interview, ("proposing_side", "rating_window", "score_cutoff")),
    "loss-scaling": Suite(exp_loss_scaling, ("n_values", "exceedance_n", "h_values",
                                             "failure_exponent", "bottom_sigma", "bottom_frac")),
    "lower-bound": Suite(exp_lower_bound, ()),
    "truncation": Suite(exp_truncation, ("proposing_side", "failure_exponent", "nu", "eta",
                                         "loss_bound")),
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the suite `config` names."""
    return EXPERIMENTS[config.experiment].run(config)
