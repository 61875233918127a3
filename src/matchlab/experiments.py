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
from dataclasses import asdict, dataclass

import numpy as np

from .analysis import (
    InterviewParams,
    acceptable_edges,
    achieved_utilities,
    benchmark_vector,
    interview_edges,
    loss_params_from_bound,
    loss_report,
    lower_bound_loss_level,
    theoretical_loss_params,
    truncated_edges,
    _truncation_thresholds,
)
from .engine import max_bipartite_matching, run_da, verify_stability
from .market import LEFT, RIGHT, MODEL_REGISTRY, Market, generate_market, linear_model, other_side

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentReport",
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration; each experiment reads the fields it needs."""

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
        if self.runs < 1:
            raise ValueError("runs must be at least 1")

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
        return generate_market(
            nl,
            nr,
            self.cap_left,
            self.cap_right,
            model=self.model(),
            seed=derive_run_seed(self.seed, run_index),
            rating_ranges=self.rating_ranges,
        )


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
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.bool_,)):
        return bool(value)
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
    out = []
    for d in range(10):
        sel = values[deciles == d]
        out.append({
            "decile": d + 1,
            "size": int(sel.size),
            "mean": float(sel.mean()) if sel.size else float("nan"),
            "min": float(sel.min()) if sel.size else float("nan"),
            "max": float(sel.max()) if sel.size else float("nan"),
        })
    return out


def _top_mask(rank: np.ndarray, frac: float) -> np.ndarray:
    """Agents in the top `frac` of ranks (rank 0 = best)."""
    return rank < int(len(rank) * frac)


# ---------------------------------------------------------------------------
# edge counts (acceptable-list lengths and proposals made)


def _edge_counts_run(config: ExperimentConfig, run_index: int) -> dict:
    market = config.make_market(run_index)
    edges = acceptable_edges(
        market,
        config.loss_cap_left,
        config.loss_cap_right if config.loss_cap_right is not None else config.loss_cap_left,
        config.sigma_left,
        config.sigma_right,
    )
    prop = config.proposing_side
    degrees = edges.degrees(prop).astype(float)
    matching = run_da(market, prop, edges)
    proposals = matching.proposal_counts.astype(float)
    rank = market.agent_rank(prop)
    dec = decile_labels(market.n(prop))[rank]
    top = _top_mask(rank, 1.0 - config.bottom_frac)
    return {
        "run": run_index,
        "list_by_decile": _decile_stats(degrees, dec),
        "proposals_by_decile": _decile_stats(proposals, dec),
        "top_list_mean": float(degrees[top].mean()),
        "top_proposals_mean": float(proposals[top].mean()),
        "all_matched": bool(matching.matched_mask(LEFT).all() and matching.matched_mask(RIGHT).all()),
        "blocking_pairs": len(verify_stability(market, edges, matching)),
    }


def exp_edge_counts(config: ExperimentConfig) -> ExperimentReport:
    """Acceptable-edge list lengths and proposals made, by proposer decile."""
    if config.loss_cap_left is None:
        raise ValueError("edge-counts needs loss_cap_left (and optionally loss_cap_right)")
    results = _map_runs(_edge_counts_run, config)
    rows = []
    for res in results:
        for kind, stats in (("list", res["list_by_decile"]), ("proposals", res["proposals_by_decile"])):
            for st in stats:
                rows.append({"run": res["run"], "metric": kind, **st})
    decile_summary = []
    for d in range(10):
        entry = {"decile": d + 1}
        for kind in ("list", "proposals"):
            per_run = [r for r in rows if r["metric"] == kind and r["decile"] == d + 1]
            entry[f"{kind}_mean"] = float(np.mean([r["mean"] for r in per_run]))
            entry[f"{kind}_min"] = float(np.min([r["min"] for r in per_run]))
            entry[f"{kind}_max"] = float(np.max([r["max"] for r in per_run]))
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
    count = int(round((config.grid_stop - config.grid_start) / config.grid_step)) + 1
    return np.round(config.grid_start + config.grid_step * np.arange(count), 10)


def _all_matched_at(market: Market, loss_cap: float, config: ExperimentConfig) -> bool:
    if config.sigma_rule == "theory":
        sigma_l = sigma_r = 3.0 * loss_cap / (4.0 * market.model.mu)
    elif config.sigma_rule == "fixed":
        sigma_l, sigma_r = config.sigma_left, config.sigma_right
    else:
        raise ValueError("sigma_rule must be 'theory' or 'fixed'")
    edges = acceptable_edges(market, loss_cap, loss_cap, sigma_l, sigma_r)
    if (edges.degrees(LEFT) == 0).any() or (edges.degrees(RIGHT) == 0).any():
        return False
    matching = run_da(market, config.proposing_side, edges)
    return bool(matching.matched_mask(LEFT).all() and matching.matched_mask(RIGHT).all())


def _min_L_run(config: ExperimentConfig, run_index: int) -> dict:
    market = config.make_market(run_index)
    grid = _loss_grid(config)
    for idx, cap in enumerate(grid):
        if _all_matched_at(market, float(cap), config):
            return {"run": run_index, "first_L": float(cap), "grid_index": idx, "matched": True}
    return {"run": run_index, "first_L": float(grid[-1]), "grid_index": len(grid) - 1, "matched": False}


def exp_min_L(config: ExperimentConfig) -> ExperimentReport:
    """Smallest grid loss threshold that matches every agent in every run.

    Returns the grid maximum as a sentinel when no grid value suffices.
    Each run is scanned upward to its first sufficient threshold; the
    overall candidate (the max over runs) is then re-verified against every
    run, walking further up the grid if needed.
    """
    results = _map_runs(_min_L_run, config)
    grid = _loss_grid(config)
    sentinel = not all(r["matched"] for r in results)
    idx = max(r["grid_index"] for r in results)
    verified = False
    if not sentinel:
        while idx < len(grid):
            candidate = float(grid[idx])
            ok = True
            for r in results:
                if r["grid_index"] == idx:
                    continue  # already known to match at its own first_L
                # no name holds the market, so it is freed before the next is made
                if not _all_matched_at(config.make_market(r["run"]), candidate, config):
                    ok = False
                    break
            if ok:
                verified = True
                break
            idx += 1
        sentinel = not verified
    min_L = float(grid[min(idx, len(grid) - 1)])
    rows = [{"run": r["run"], "first_L": r["first_L"], "matched": r["matched"]} for r in results]
    summary = {
        "min_L": min_L,
        "sentinel": sentinel,
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
    rank = market.agent_rank(side)
    dec = decile_labels(market.n(side))[rank]
    per_decile = [int(multi[dec == d].sum()) for d in range(10)]
    sizes = [int((dec == d).sum()) for d in range(10)]
    top90 = _top_mask(rank, 0.9)
    return {
        "run": run_index,
        "per_decile": per_decile,
        "sizes": sizes,
        "top90_count": int(multi[top90].sum()),
        "top90_size": int(top90.sum()),
        "bottom_decile_count": per_decile[9],
        "bottom_decile_size": sizes[9],
        "blocking_pairs": audit,
    }


def exp_unique_partners(config: ExperimentConfig) -> ExperimentReport:
    """Counts of agents with more than one stable partner, by decile."""
    results = _map_runs(_unique_partners_run, config)
    rows = []
    for res in results:
        for d in range(10):
            rows.append({
                "run": res["run"],
                "decile": d + 1,
                "multi_stable": res["per_decile"][d],
                "size": res["sizes"][d],
            })
    total_top = sum(r["top90_count"] for r in results)
    total_top_size = sum(r["top90_size"] for r in results)
    total_bottom = sum(r["bottom_decile_count"] for r in results)
    total_bottom_size = sum(r["bottom_decile_size"] for r in results)
    summary = {
        "mean_per_decile": [float(np.mean([r["per_decile"][d] for r in results])) for d in range(10)],
        "top90_fraction": total_top / total_top_size,
        "bottom_decile_fraction": total_bottom / total_bottom_size,
        "blocking_pairs_total": int(sum(r["blocking_pairs"] for r in results)),
    }
    return _report(config, rows, summary)


# ---------------------------------------------------------------------------
# interview protocol


def _interview_run(config: ExperimentConfig, run_index: int) -> dict:
    market = config.make_market(run_index)
    params = InterviewParams(config.rating_window, config.score_cutoff)
    edges = interview_edges(market, params)
    matching = run_da(market, config.proposing_side, edges)
    audit = len(verify_stability(market, edges, matching))
    prop = config.proposing_side
    unmatched = ~matching.matched_mask(prop)
    rank = market.agent_rank(prop)
    dec = decile_labels(market.n(prop))[rank]
    per_decile = [int(unmatched[dec == d].sum()) for d in range(10)]
    sizes = [int((dec == d).sum()) for d in range(10)]
    full = run_da(market, prop)
    diff = achieved_utilities(market, full, prop) - achieved_utilities(market, matching, prop)
    both = matching.matched_mask(prop) & full.matched_mask(prop)
    return {
        "run": run_index,
        "per_decile": per_decile,
        "sizes": sizes,
        "unmatched": int(unmatched.sum()),
        "mean_degree": float(edges.degrees(prop).mean()),
        "diff_quantiles": [float(q) for q in np.quantile(diff[both], [0.5, 0.9, 0.99])] if both.any() else [],
        "diff_max": float(diff[both].max()) if both.any() else float("nan"),
        "blocking_pairs": audit,
    }


def exp_interview(config: ExperimentConfig) -> ExperimentReport:
    """Unmatched counts by decile under the constant-list interview protocol,
    plus the utility gap against the full-edge proposer-optimal match."""
    results = _map_runs(_interview_run, config)
    rows = []
    for res in results:
        for d in range(10):
            rows.append({
                "run": res["run"],
                "decile": d + 1,
                "unmatched": res["per_decile"][d],
                "size": res["sizes"][d],
            })
    n_prop = config.n_left if config.proposing_side == LEFT else config.sides()[1]
    total_unmatched = sum(r["unmatched"] for r in results)
    bottom_two = sum(r["per_decile"][8] + r["per_decile"][9] for r in results)
    summary = {
        "unmatched_fraction": total_unmatched / (config.runs * n_prop),
        "bottom_two_decile_share": (bottom_two / total_unmatched) if total_unmatched else float("nan"),
        "mean_degree": float(np.mean([r["mean_degree"] for r in results])),
        "mean_per_decile": [float(np.mean([r["per_decile"][d] for r in results])) for d in range(10)],
        "diff_quantiles_mean": [
            float(np.mean([r["diff_quantiles"][k] for r in results if r["diff_quantiles"]]))
            for k in range(3)
        ],
        "blocking_pairs_total": int(sum(r["blocking_pairs"] for r in results)),
    }
    return _report(config, rows, summary)


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
        aligned = market.aligned_ratings(side)
        floor = market.rating_range(other_side(side))[0]
        keep = ~np.isnan(aligned) & (aligned >= floor + cutoff)
        vals = loss[keep]
        pooled.append(vals[~np.isnan(vals)])
    return np.concatenate(pooled)


def exp_loss_scaling(config: ExperimentConfig) -> ExperimentReport:
    """Max/quantile pessimal losses of non-bottom agents across market sizes,
    plus the exceedance histogram against halving loss thresholds."""
    scaling = [(run, n) for n in config.n_values for run in range(config.runs)]
    exceedance_runs = [] if config.exceedance_n is None else [
        (run, config.exceedance_n) for run in range(config.runs)]
    pooled = _map_runs(_non_bottom_losses, config, scaling + exceedance_runs)
    results = [{
        "run": run,
        "n": n,
        "max_loss": float(vals.max()),
        "q50": float(np.quantile(vals, 0.5)),
        "q90": float(np.quantile(vals, 0.9)),
        "non_bottom": int(vals.size),
    } for (run, n), vals in zip(scaling, pooled)]
    rows = [{"kind": "scaling", **r} for r in results]

    medians = {}
    for n in config.n_values:
        maxes = [r["max_loss"] for r in results if r["n"] == n]
        medians[n] = float(np.median(maxes))
    n_small, n_large = min(config.n_values), max(config.n_values)
    ratio = medians[n_small] / medians[n_large] if medians[n_large] > 0 else float("inf")
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
                rows.append({
                    "kind": "exceedance",
                    "run": run,
                    "n": config.exceedance_n,
                    "h": h,
                    "threshold": threshold,
                    "count": count,
                })
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


def _lower_bound_run(config: ExperimentConfig, run_index: int) -> dict:
    market = config.make_market(run_index)
    n = market.n_left
    level = lower_bound_loss_level(n)
    sigma = 1.5 * level
    edges = acceptable_edges(market, level, level, sigma, sigma)
    size = max_bipartite_matching(edges)
    return {
        "run": run_index,
        "max_matching": size,
        "perfect": bool(size == n),
        "edges": edges.edge_count,
    }


def exp_lower_bound(config: ExperimentConfig) -> ExperimentReport:
    """Frequency of markets whose tight acceptable edge set admits no
    perfect matching (observational probe of the loss-bound tightness)."""
    results = _map_runs(_lower_bound_run, config)
    n = config.n_left
    rows = [dict(r) for r in results]
    no_perfect = sum(1 for r in results if not r["perfect"])
    summary = {
        "loss_level": lower_bound_loss_level(n),
        "sigma": 1.5 * lower_bound_loss_level(n),
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
    model = config.model()
    if config.loss_bound is not None:
        params = loss_params_from_bound(config.loss_bound, model, config.failure_exponent)
    else:
        params = theoretical_loss_params(n, config.failure_exponent, model)
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
    aligned = market.aligned_ratings(prop)
    floor = market.rating_range(other_side(prop))[0]
    bottom = np.isnan(aligned) | (aligned < floor + sigma_prop)

    t_for_prop = t_left if prop == LEFT else t_right
    thresholds = _truncation_thresholds(market, prop, shift * t_for_prop**2)
    report = loss_report(market, matching, params)
    loss_prop = report.side(prop).loss
    matched_prop = matching.matched_mask(prop)
    over = matched_prop & ~np.isnan(thresholds) & (loss_prop > thresholds + 1e-12)
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
    results = _map_runs(_truncation_run, config)
    rows = [dict(r) for r in results]
    summary = {
        "match_rate_mean": float(np.mean([r["match_rate"] for r in results])),
        "bottom_mean_proposals": float(np.nanmean([r["bottom_mean_proposals"] for r in results])),
        "rest_mean_proposals": float(np.nanmean([r["rest_mean_proposals"] for r in results])),
        "over_threshold_total": int(sum(r["over_threshold"] for r in results)),
        "blocking_pairs_total": int(sum(r["blocking_pairs"] for r in results)),
        "t_left": results[0]["t_left"],
        "t_right": results[0]["t_right"],
    }
    return _report(config, rows, summary)


EXPERIMENTS = {
    "edge-counts": exp_edge_counts,
    "min-L": exp_min_L,
    "unique-partners": exp_unique_partners,
    "interview": exp_interview,
    "loss-scaling": exp_loss_scaling,
    "lower-bound": exp_lower_bound,
    "truncation": exp_truncation,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch a named experiment."""
    try:
        fn = EXPERIMENTS[config.experiment]
    except KeyError:
        raise ValueError(f"unknown experiment {config.experiment!r}; "
                         f"known: {', '.join(sorted(EXPERIMENTS))}") from None
    return fn(config)
