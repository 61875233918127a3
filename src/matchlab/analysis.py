"""Benchmarks, losses, loss thresholds, and edge-set constructions.

The benchmark of an agent is the utility it would get from its aligned
partner's public rating paired with a perfect private score; loss is
benchmark minus achieved utility (negative loss is a gain).  Edge-set
builders realize the protocols studied by the experiment harness:
acceptable, viable, interview, selected, and truncated sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    EdgeSet,
    Matching,
    _check_shape,
    _edge_chunks,
    _mutual_edges,
    _prefers_to_worst,
    extreme_matchings,
    worst_partner,
)
from .market import LEFT, RIGHT, Market, UtilityModel, other_side, stream_rng

__all__ = [
    "InterviewParams",
    "LossParams",
    "LossReport",
    "SelectedSetParams",
    "SideLossReport",
    "acceptable_edges",
    "acceptable_entry_levels",
    "achieved_utilities",
    "benchmark",
    "benchmark_vector",
    "cone_bounds",
    "interview_edges",
    "loss_params_from_bound",
    "loss_report",
    "loss_threshold_edges",
    "lower_bound_loss_level",
    "selected_cone_halfwidth",
    "selected_degree_stats",
    "selected_edges",
    "selected_survival",
    "selected_weight",
    "theoretical_loss_params",
    "truncated_edges",
    "viable_edges",
]


# ---------------------------------------------------------------------------
# loss parameters


@dataclass(frozen=True)
class LossParams:
    """Loss bound and the derived analysis margins for one market scale.

    ``loss_bound`` caps the loss of non-bottom agents; ``sigma_bound`` is
    the aligned-rating threshold below which agents are exempt (the bottom
    zone).  ``rating_margin`` is the rating half-width used by double cuts
    and cones; ``propose_margin`` and ``accept_margin`` are the matching
    probability margins implied by the model's derivative bounds.
    """

    failure_exponent: float
    loss_bound: float
    sigma_bound: float
    rating_margin: float
    propose_margin: float
    accept_margin: float
    t: float = 1.0

    def with_t(self, t: float) -> "LossParams":
        """Relaxed copy for low-rating agents: the exempt zone shrinks by t
        while the loss bound grows by t^2 (margins rescale to keep the
        failure exponent's leading term)."""
        if t < 1.0:
            raise ValueError("t must be at least 1")
        return replace(
            self,
            t=t,
            loss_bound=self.loss_bound * t * t,
            sigma_bound=self.sigma_bound / t,
            rating_margin=self.rating_margin / t,
            propose_margin=self.propose_margin / t,
            accept_margin=self.accept_margin * t,
        )


def loss_params_from_bound(loss_bound: float, model: UtilityModel,
                           failure_exponent: float = float("nan")) -> LossParams:
    """Derive the analysis margins from an explicit loss bound (or, field by
    field, from an array of bounds)."""
    mu, rho = model.mu, model.rho
    alpha = loss_bound / (4.0 * mu)
    return LossParams(
        failure_exponent=failure_exponent,
        loss_bound=loss_bound,
        sigma_bound=3.0 * loss_bound / (4.0 * mu),
        rating_margin=alpha,
        propose_margin=alpha * rho,
        accept_margin=alpha * rho,
    )


def theoretical_loss_params(n: int, failure_exponent: float, model: UtilityModel) -> LossParams:
    """Loss bound guaranteeing failure probability at most n**-failure_exponent.

    For the half-weight linear model this reduces to
    (16 (c+2) ln n / n)^(1/3).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    c = failure_exponent
    mu, rho = model.mu, model.rho
    loss_bound = (128.0 * (c + 2.0) * mu**3 * math.log(n) / (rho**2 * n)) ** (1.0 / 3.0)
    return loss_params_from_bound(loss_bound, model, failure_exponent=c)


def _loss_params(loss_bound: float | None, n: int, failure_exponent: float,
                 model: UtilityModel) -> LossParams:
    """Params from `loss_bound` when one is given, else from the theoretical
    bound at market size n."""
    if loss_bound is None:
        return theoretical_loss_params(n, failure_exponent, model)
    return loss_params_from_bound(loss_bound, model, failure_exponent)


def lower_bound_loss_level(n: int) -> float:
    """Loss level below which a perfect matching fails to exist with
    probability at least n**(-1/8)/4 (half-weight linear model)."""
    return 0.125 * (math.log(n) / n) ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# benchmarks and losses


def benchmark_vector(market: Market, side: str) -> np.ndarray:
    """Per-agent benchmark utility; NaN for agents without an aligned partner."""
    aligned = market.aligned_ratings(side)
    out = np.full(market.n(side), np.nan)
    ok = ~np.isnan(aligned)
    if ok.any():
        out[ok] = market.model.utility(side, aligned[ok], 1.0)
    return out


def benchmark(market: Market, side: str, rank: int) -> float | None:
    """Benchmark of the rank-`rank` agent (0 = best); None if no aligned partner."""
    agent = int(market.rank_to_agent(side)[rank])
    value = benchmark_vector(market, side)[agent]
    return None if np.isnan(value) else float(value)


def achieved_utilities(market: Market, matching: Matching, side: str,
                       unmatched=np.nan) -> np.ndarray:
    """Per-agent utility of the worst held match; `unmatched` where empty."""
    worst_u, _ = worst_partner(market, side, matching)
    return np.where(matching.matched_mask(side), worst_u, unmatched)


@dataclass
class SideLossReport:
    side: str
    benchmark: np.ndarray
    achieved: np.ndarray
    loss: np.ndarray
    aligned_rating: np.ndarray
    bottom_zone: np.ndarray
    matched: np.ndarray
    match_count: np.ndarray

    def rows(self, market: Market) -> list[dict]:
        rank = market.agent_rank(self.side)
        return [{
            "side": self.side,
            "agent_index": a,
            "public_rank": int(rank[a]),
            "aligned_rating": float(self.aligned_rating[a]),
            "benchmark": float(self.benchmark[a]),
            "achieved": float(self.achieved[a]),
            "loss": float(loss),
            "is_gain": bool(loss < 0),  # False for a NaN loss
            "bottom_zone": bool(self.bottom_zone[a]),
            "matched": bool(self.matched[a]),
            "match_count": int(self.match_count[a]),
        } for a, loss in enumerate(self.loss)]


@dataclass
class LossReport:
    left: SideLossReport
    right: SideLossReport

    def rows(self, market: Market) -> list[dict]:
        return self.left.rows(market) + self.right.rows(market)


def _bottom_zone(market: Market, side: str, sigma: float | None) -> np.ndarray:
    """Agents of `side` in the bottom zone: those without an aligned partner,
    and, unless `sigma` is None, those whose aligned partner is rated below
    the other side's rating floor plus `sigma`."""
    aligned = market.aligned_ratings(side)
    if sigma is None:
        return np.isnan(aligned)
    return np.isnan(aligned) | (aligned < market.rating_range(other_side(side))[0] + sigma)


def _side_loss(market: Market, matching: Matching, side: str,
               params: LossParams | None) -> SideLossReport:
    bench = benchmark_vector(market, side)
    achieved = achieved_utilities(market, matching, side)
    return SideLossReport(
        side=side,
        benchmark=bench,
        achieved=achieved,
        loss=bench - achieved,
        aligned_rating=market.aligned_ratings(side),
        bottom_zone=_bottom_zone(market, side, None if params is None else params.sigma_bound),
        matched=matching.matched_mask(side),
        match_count=matching.match_counts(side),
    )


def loss_report(market: Market, matching: Matching, params: LossParams | None = None,
                params_right: LossParams | None = None) -> LossReport:
    """Per-agent benchmark/achieved/loss report for both sides.

    Unmatched agents carry NaN achieved utility and loss; the bottom-zone
    flag marks agents whose aligned partner's rating falls below the
    params' sigma bound (or who have no aligned partner at all).  `params`
    serves both sides unless `params_right` is given for the right side.
    """
    return LossReport(
        left=_side_loss(market, matching, LEFT, params),
        right=_side_loss(market, matching, RIGHT, params if params_right is None else params_right),
    )


# ---------------------------------------------------------------------------
# edge-set constructions


def _threshold_keep(market: Market, side: str, thresholds):
    """`_mutual_edges` test: edges whose loss to `side` is within threshold.

    An agent with a NaN threshold, or without a benchmark, keeps every edge.
    """
    bench = benchmark_vector(market, side)
    floor = bench - np.broadcast_to(np.asarray(thresholds, dtype=float), bench.shape)
    free = np.isnan(floor)
    u = market.utility_matrix(side)

    def keep(rows, cols):
        out = u[rows, cols] >= floor[rows, None]
        out[free[rows]] = True
        return out

    return keep


def loss_threshold_edges(market: Market, thresholds_left, thresholds_right) -> EdgeSet:
    """Edges whose loss stays within per-agent caps on both sides; an agent
    with a NaN cap keeps every edge."""
    return _mutual_edges(market, _threshold_keep(market, LEFT, thresholds_left),
                         _threshold_keep(market, RIGHT, thresholds_right))


def acceptable_edges(market: Market, loss_cap_left: float, loss_cap_right: float,
                     sigma_left: float = 0.0, sigma_right: float = 0.0) -> EdgeSet:
    """Edges acceptable to both sides.

    An edge is acceptable to an agent when its loss against the agent's own
    benchmark is at most the side's cap, or when the agent sits in its
    side's bottom rating zone (rating within sigma of the range floor, or
    no aligned partner at all).  A bottom-zone agent's cap is NaN.
    """
    return loss_threshold_edges(market, *(
        np.where(market.ratings(side) < market.rating_range(side)[0] + sigma, np.nan, cap)
        for side, cap, sigma in ((LEFT, loss_cap_left, sigma_left),
                                 (RIGHT, loss_cap_right, sigma_right))))


def acceptable_entry_levels(market: Market, caps, sigmas_left, sigmas_right,
                            edges: EdgeSet) -> tuple[np.ndarray, np.ndarray]:
    """Where each edge of `edges` enters a nested family of acceptable sets.

    Level k of the family is ``acceptable_edges(market, caps[k], caps[k],
    sigmas_left[k], sigmas_right[k])``.  With `caps` increasing and the
    sigmas non-decreasing, every test in it (``u >= bench - cap`` and
    ``rating < range_lo + sigma``) is monotone in k, so the sets are nested
    and an edge belongs to level k exactly when k is at least its entry
    level.  Returns the flat indices of the edges of `edges` and, for each,
    the smallest such k (``len(caps)`` for an edge no level holds).
    """
    _check_shape(edges, market)
    caps = np.asarray(caps, dtype=float)
    sides = {}
    for side, sigmas in ((LEFT, sigmas_left), (RIGHT, sigmas_right)):
        bench = benchmark_vector(market, side)
        # the first level whose bottom zone holds the agent; agents without
        # a benchmark keep every edge at every level
        zone = market.rating_range(side)[0] + np.asarray(sigmas, dtype=float)
        free = np.searchsorted(zone, market.ratings(side), side="right")
        free[np.isnan(bench)] = 0
        sides[side] = (market.utility_matrix(side), bench, free)

    def entry(side, agents, partners):
        u, bench, free = sides[side]
        return np.minimum(free[agents], _first_cap(u[agents, partners], bench[agents], caps))

    dtype = np.min_scalar_type(caps.size)
    level = [np.maximum(entry(LEFT, i, j), entry(RIGHT, j, i)).astype(dtype)
             for _, i, j in _edge_chunks(edges)]
    return edges.flat, np.concatenate([np.empty(0, dtype=dtype), *level])


def _first_cap(u: np.ndarray, bench: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Per entry, the smallest k with ``u >= bench - caps[k]`` (``caps.size``
    where none holds, as for a NaN utility).

    A sorted search for ``bench - u`` among the caps gives an estimate that
    rounding may leave one step off; exact comparisons in the form the
    acceptable-edge test uses then move each entry down or up until none moves.
    """
    with np.errstate(invalid="ignore"):
        k = np.searchsorted(caps, bench - u)  # NaN sorts after every cap
    while True:
        down = np.flatnonzero(k > 0)
        down = down[u[down] >= bench[down] - caps[k[down] - 1]]
        k[down] -= 1
        up = np.flatnonzero(k < caps.size)
        up = up[~(u[up] >= bench[up] - caps[k[up]])]
        k[up] += 1
        if not (down.size or up.size):
            return k


def viable_edges(market: Market, edges: EdgeSet | None = None) -> EdgeSet:
    """Edges weakly preferred by both endpoints to their pessimal-stable worst.

    Running deferred acceptance on the result reproduces the run on the
    input edge set exactly.
    """
    left_opt, right_opt = extreme_matchings(market, edges)
    return _mutual_edges(market, _prefers_to_worst(market, LEFT, right_opt, weak=True),
                         _prefers_to_worst(market, RIGHT, left_opt, weak=True), edges)


def cone_bounds(market: Market, params: LossParams, agent: int, side: str = LEFT) -> tuple[float, float]:
    """Rating interval containing the agent's acceptable partners w.h.p.

    The interval is centred on the aligned partner's rating r and spans
    [r - 4a, r + 5a] where a is the params' rating margin.
    """
    r = market.aligned_ratings(side)[agent]
    if np.isnan(r):
        raise ValueError("agent has no aligned partner; cone undefined")
    a = params.rating_margin
    return float(r - 4.0 * a), float(r + 5.0 * a)


@dataclass(frozen=True)
class InterviewParams:
    """Constant-list interview protocol: rating gap at most `rating_window`,
    both private scores strictly above the cutoff(s)."""

    rating_window: float
    score_cutoff: float
    score_cutoff_left: float | None = None  # asymmetric variant, default symmetric
    score_cutoff_right: float | None = None

    def __post_init__(self) -> None:
        for v in (self.rating_window, self.score_cutoff, self.cutoff_left, self.cutoff_right):
            if not 0.0 <= v <= 1.0:
                raise ValueError("interview parameters live in [0, 1]")

    @property
    def cutoff_left(self) -> float:
        return self.score_cutoff if self.score_cutoff_left is None else self.score_cutoff_left

    @property
    def cutoff_right(self) -> float:
        return self.score_cutoff if self.score_cutoff_right is None else self.score_cutoff_right


def interview_edges(market: Market, params: InterviewParams) -> EdgeSet:
    """Edges with small rating gap and mutually high private scores."""
    rl, rr = market.ratings_left, market.ratings_right
    sl, sr = market.scores_left, market.scores_right

    def keep_left(rows, cols):
        out = np.abs(rl[rows, None] - rr[None, cols]) <= params.rating_window
        out &= sl[rows, cols] > params.cutoff_left
        return out

    return _mutual_edges(market, keep_left, lambda rows, cols: sr[rows, cols] > params.cutoff_right)


# ---------------------------------------------------------------------------
# selected edge set (expected O(1) proposals per agent)


def selected_cone_halfwidth(expected_degree: float, n: int) -> float:
    return 0.5 * (expected_degree / n) ** (1.0 / 3.0)


@dataclass(frozen=True)
class SelectedSetParams:
    """Two-round selection protocol targeting `expected_degree` granted
    interviews per mid-rating agent."""

    expected_degree: float
    cone_halfwidth: float | None = None

    def __post_init__(self) -> None:
        if self.expected_degree < 1:
            raise ValueError("expected_degree must be at least 1")

    def halfwidth(self, n: int) -> float:
        if self.cone_halfwidth is not None:
            return self.cone_halfwidth
        return selected_cone_halfwidth(self.expected_degree, n)


def selected_weight(x, y, expected_degree: float, sigma: float):
    """Pair-selection weight: symmetric, zero outside the 2-sigma rating cone,
    boosted near both ends of the rating range.

    The weight is k/(4 sigma^2) whenever either rating is in the middle band
    [sigma, 1 - sigma], with an additive correction when both ratings fall
    in the same extreme band.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = expected_degree
    base = np.full(np.broadcast_shapes(x.shape, y.shape), k / (4.0 * sigma**2))
    both_low = (x < sigma) & (y < sigma)
    both_high = (x > 1.0 - sigma) & (y > 1.0 - sigma)
    low_boost = k * (sigma - x) * (sigma - y) / (2.0 * sigma**2)
    high_boost = k * (x + sigma - 1.0) * (y + sigma - 1.0) / (2.0 * sigma**2)
    w = base + np.where(both_low, low_boost, 0.0) + np.where(both_high, high_boost, 0.0)
    in_range = (x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0)
    in_cone = np.abs(x - y) <= 2.0 * sigma
    return np.where(in_range & in_cone, w, 0.0)


def selected_survival(x, y, expected_degree: float, sigma: float, n: int):
    """Edge survival probability; integrates to `expected_degree` granted
    interviews for an agent whose full cone sits inside the rating range."""
    return selected_weight(x, y, expected_degree, sigma) * sigma / n


def selected_edges(market: Market, params: SelectedSetParams, seed: int | None = None) -> EdgeSet:
    """Edges surviving the two-round interview selection protocol.

    Each side passes an in-cone edge when its private score reaches
    1 - sqrt(p), so the edge survives with probability exactly p.  With
    ``seed=None`` the market's own private scores drive the protocol;
    passing a seed redraws the protocol's randomness on fresh streams
    keyed by the seed (same ratings, independent selections).
    """
    n = market.n_left
    if market.n_right != n or market.cap_left != 1 or market.cap_right != 1:
        raise ValueError("selected_edges needs a balanced one-to-one market")
    sigma = params.halfwidth(n)
    if sigma > 0.5:
        raise ValueError("cone halfwidth above 1/2; increase n or reduce expected_degree")
    if seed is None:
        scores_l, scores_r = market.scores_left, market.scores_right
    else:
        scores_l = stream_rng(seed, 4).random((n, n))
        scores_r = stream_rng(seed, 5).random((n, n))
    rl, rr = market.ratings_left, market.ratings_right
    k = params.expected_degree

    def keep(rows, cols):
        # one survival block serves both sides; the right scores are read
        # transposed, block by block
        p = selected_survival(rl[rows, None], rr[None, cols], k, sigma, n)
        if p.max() > 1.0:
            raise ValueError("survival probability above 1 after boundary corrections; "
                             "expected_degree too large for this n")
        threshold = 1.0 - np.sqrt(p)
        return (p > 0.0) & (scores_l[rows, cols] >= threshold) & (scores_r[cols, rows].T >= threshold)

    return _mutual_edges(market, keep, None)


def selected_degree_stats(market: Market, params: SelectedSetParams,
                          edges: EdgeSet | None = None) -> dict:
    """Granted-interview counts per agent, split out for mid-rating agents.

    Mid-rating means the agent's whole cone fits inside the rating range,
    where the protocol calibrates the expected count to `expected_degree`.
    """
    if edges is None:
        edges = selected_edges(market, params)
    sigma = params.halfwidth(market.n_left)
    out = {}
    for side in (LEFT, RIGHT):
        deg = edges.degrees(side)
        r = market.ratings(side)
        mid = (r >= 2.0 * sigma) & (r <= 1.0 - 2.0 * sigma)
        out[side] = {
            "degrees": deg,
            "mid_mask": mid,
            "mid_mean": float(deg[mid].mean()) if mid.any() else float("nan"),
        }
    return out


# ---------------------------------------------------------------------------
# truncation strategies


def _truncation_thresholds(market: Market, side: str, shift: float) -> np.ndarray:
    """Per-agent reservation loss: benchmark minus the benchmark evaluated at
    the aligned rating shifted down by `shift` (rating axis extended
    linearly below zero)."""
    aligned = market.aligned_ratings(side)
    bench = benchmark_vector(market, side)
    shifted = np.asarray(
        market.model.utility_extended(side, aligned - shift, 1.0), dtype=float
    )
    return bench - shifted


def truncated_edges(market: Market, params: LossParams, t_left: float = 1.0,
                    t_right: float = 1.0) -> EdgeSet:
    """Edges surviving both sides' reservation (truncation) strategies.

    A side's threshold at relaxation t is the benchmark drop across a
    rating shift of (loss bound / slope cap) * t^2; for the linear model at
    t = 1 this equals the loss bound itself.  Edges causing either endpoint
    a loss beyond its threshold are removed; agents without a benchmark
    truncate nothing.
    """
    if t_left < 1.0 or t_right < 1.0:
        raise ValueError("relaxation parameters must be at least 1")
    shift = 4.0 * params.rating_margin
    thr_l = _truncation_thresholds(market, LEFT, shift * t_left**2)
    thr_r = _truncation_thresholds(market, RIGHT, shift * t_right**2)
    return loss_threshold_edges(market, thr_l, thr_r)
