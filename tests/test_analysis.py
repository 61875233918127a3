import math

import numpy as np
import pytest

import matchlab as ml
from matchlab.analysis import benchmark_vector, loss_threshold_edges, selected_cone_halfwidth
from matchlab.market import LEFT, RIGHT

from conftest import brute_force_stable_set, mask, selected_degree_stats


# --- benchmarks and losses ---------------------------------------------------


def benchmark_at_rank(market, side, rank):
    """Benchmark of the `side` agent at `rank` (0 = best); NaN without an
    aligned partner."""
    return benchmark_vector(market, side)[market.rank_to_agent(side)[rank]]


def test_benchmark_formula():
    m = ml.generate_market(50, 50, model=ml.linear_model(0.5), seed=10)
    rank = 12
    aligned_rating = m.ratings_right[m.rank_to_agent(RIGHT)[rank]]
    assert benchmark_at_rank(m, LEFT, rank) == pytest.approx(0.5 * aligned_rating + 0.5)


def test_benchmark_top_rank_uses_best_rating():
    m = ml.generate_market(50, 50, model=ml.linear_model(0.8), seed=11)
    best = m.ratings_right.max()
    assert benchmark_at_rank(m, LEFT, 0) == pytest.approx(0.8 * best + 0.2)


def test_benchmark_many_to_one_alignment():
    m = ml.generate_market(64, 8, cap_right=8, model=ml.linear_model(0.5), seed=12)
    # company of rank 3 is aligned with the worker of rank 24
    worker = m.rank_to_agent(LEFT)[23]
    assert benchmark_at_rank(m, RIGHT, 2) == pytest.approx(0.5 * m.ratings_left[worker] + 0.5)


def test_benchmark_overflow_rank_is_none():
    m = ml.generate_market(5, 3, model=ml.linear_model(0.5), seed=13, rating_ranges="unit")
    assert np.isnan(benchmark_at_rank(m, LEFT, 4))


def test_benchmark_non_increasing_in_rank():
    m = ml.generate_market(100, 100, model=ml.linear_model(0.7), seed=14)
    values = [benchmark_at_rank(m, LEFT, r) for r in range(100)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_loss_report_exact_values():
    m = ml.generate_market(10, 10, model=ml.linear_model(0.5), seed=15)
    matching = ml.run_da(m, LEFT)
    rows = ml.loss_rows(m, matching)
    left = [row for row in rows if row["side"] == LEFT]
    bench = benchmark_vector(m, LEFT)
    achieved = ml.achieved_utilities(m, matching, LEFT)
    assert np.allclose(ml.agent_losses(m, matching, LEFT), bench - achieved)
    assert np.allclose([row["loss"] for row in left], bench - achieved)
    assert all(row["matched"] for row in left)


def test_loss_report_unmatched_marker_and_bottom_zone():
    m = ml.generate_market(30, 30, model=ml.linear_model(0.5), seed=16)
    empty = ml.Matching([], 30, 30)
    params = ml.loss_params_from_bound(0.3, m.model)
    rows = ml.loss_rows(m, empty, params.sigma_bound, params.sigma_bound)
    left = [row for row in rows if row["side"] == LEFT]
    assert np.isnan([row["loss"] for row in left]).all()
    assert not any(row["matched"] for row in left)
    expected = m.aligned_ratings(LEFT) < params.sigma_bound
    assert ([row["bottom_zone"] for row in left] == expected).all()


def test_loss_subset_inequality():
    m = ml.generate_market(300, 300, model=ml.linear_model(0.8), seed=17)
    matching = ml.run_da(m, LEFT)
    params = ml.loss_params_from_bound(0.2, m.model)
    left = [row for row in ml.loss_rows(m, matching, params.sigma_bound, params.sigma_bound)
            if row["side"] == LEFT]
    loss = np.array([row["loss"] for row in left])
    non_bottom = ~np.array([row["bottom_zone"] for row in left])
    assert np.nanmax(loss[non_bottom]) <= np.nanmax(loss)


# --- theoretical loss parameters ---------------------------------------------


def test_theoretical_loss_cube_root():
    # pick n so that 16 * 3 * ln(n) / n == 1e-3, then the bound is 0.1
    model = ml.linear_model(0.5)
    target = 1e-3

    def f(n):
        return 16 * 3 * math.log(n) / n - target

    lo, hi = 10.0, 1e9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    n = int(round(0.5 * (lo + hi)))
    params = ml.theoretical_loss_params(n, 1.0, model)
    assert params.loss_bound == pytest.approx(0.1, rel=1e-3)
    assert params.sigma_bound == pytest.approx(1.5 * params.loss_bound, rel=1e-9)


def test_theoretical_loss_model_ratio():
    n = 5000
    half = ml.theoretical_loss_params(n, 1.0, ml.linear_model(0.5))
    skew = ml.theoretical_loss_params(n, 1.0, ml.linear_model(0.8))
    mu, rho = 0.8, 4.0
    expected = (128 * mu**3 / rho**2 / 16.0) ** (1.0 / 3.0)
    assert skew.loss_bound / half.loss_bound == pytest.approx(expected, rel=1e-9)


def test_loss_params_margins():
    params = ml.loss_params_from_bound(0.12, ml.linear_model(0.8))
    assert params.rating_margin == pytest.approx(0.12 / 3.2)
    assert params.sigma_bound == pytest.approx(3 * params.rating_margin)


def test_lower_bound_loss_level():
    n = 32000
    assert ml.lower_bound_loss_level(n) == pytest.approx((math.log(n) / n) ** (1 / 3) / 8)


# --- acceptable edges ---------------------------------------------------------


def test_acceptable_full_at_loss_one(small_market):
    edges = ml.acceptable_edges(small_market, 1.0, 1.0)
    assert edges.is_full()


def test_acceptable_empty_at_zero_loss():
    m = ml.generate_market(40, 40, model=ml.linear_model(0.5), seed=18)
    edges = ml.acceptable_edges(m, 0.0, 0.0)
    # a zero-loss edge needs a perfect private score on both ends: a.s. none
    assert edges.edge_count == 0


def test_acceptable_monotone_in_l_and_sigma(small_market):
    base = ml.acceptable_edges(small_market, 0.1, 0.1)
    bigger_l = ml.acceptable_edges(small_market, 0.2, 0.15)
    assert (base & bigger_l) == base
    with_sigma = ml.acceptable_edges(small_market, 0.1, 0.1, 0.2, 0.1)
    assert (base & with_sigma) == base


def test_acceptable_bottom_zone_exemption():
    m = ml.generate_market(50, 50, model=ml.linear_model(0.8), seed=19)
    edges = ml.acceptable_edges(m, 0.05, 0.05, sigma_left=1.0, sigma_right=1.0)
    assert edges.is_full()


def test_acceptable_overflow_agents_exempt():
    # the long side's overflow ranks have no aligned partner: bottom treatment
    m = ml.generate_market(6, 3, model=ml.linear_model(0.5), seed=20, rating_ranges="unit")
    edges = ml.acceptable_edges(m, 0.0, 1.0)
    overflow = [int(m.rank_to_agent(LEFT)[r]) for r in (3, 4, 5)]
    for agent in overflow:
        assert edges.degrees(LEFT)[agent] == 3


# --- viable edges --------------------------------------------------------------


def test_viable_contains_stable_edges_small():
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        m = ml.generate_market(n, n, model=ml.linear_model(0.6), seed=int(rng.integers(1 << 32)))
        viable = ml.viable_edges(m)
        for s in brute_force_stable_set(m):
            assert (s.edges & viable) == s.edges


def test_viable_da_equivalence(mid_market):
    viable = ml.viable_edges(mid_market)
    assert viable.edge_count < mid_market.n_left * mid_market.n_right
    assert ml.run_da(mid_market, LEFT, viable).edges == ml.run_da(mid_market, LEFT).edges
    assert ml.run_da(mid_market, RIGHT, viable).edges == ml.run_da(mid_market, RIGHT).edges


def test_viable_unique_instance_contains_matching():
    m = ml.generate_market(40, 40, model=ml.linear_model(0.999), seed=44)
    viable = ml.viable_edges(m)
    full_match = ml.run_da(m, LEFT)
    assert (full_match.edges & viable) == full_match.edges
    assert ml.run_da(m, LEFT, viable).edges == full_match.edges


def test_loss_threshold_sandwich(mid_market):
    viable = ml.viable_edges(mid_market)
    left_opt, right_opt = ml.extreme_matchings(mid_market)
    full_match = ml.run_da(mid_market, LEFT)
    for margin in (0.02, 0.05, 0.1):
        thr_l = benchmark_vector(mid_market, LEFT) - ml.achieved_utilities(mid_market, right_opt, LEFT) + margin
        thr_r = benchmark_vector(mid_market, RIGHT) - ml.achieved_utilities(mid_market, left_opt, RIGHT) + margin
        superset = loss_threshold_edges(mid_market, thr_l, thr_r)
        assert (viable & superset) == viable
        assert ml.run_da(mid_market, LEFT, superset).edges == full_match.edges


# --- cones ----------------------------------------------------------------------


def test_cone_contains_acceptable_edges_monte_carlo():
    inside = total = 0
    for seed in (48, 49):
        m = ml.generate_market(1000, 1000, model=ml.linear_model(0.8), seed=seed)
        params = ml.loss_params_from_bound(0.15, m.model)
        edges = ml.acceptable_edges(m, 0.15, 0.15, params.sigma_bound, params.sigma_bound)
        aligned = m.aligned_ratings(LEFT)
        ratings_r = m.ratings_right
        dense = mask(edges)
        for i in np.flatnonzero(aligned >= params.sigma_bound):
            # the cone around the aligned rating r: [r - 4a, r + 5a], a the rating margin
            lo = aligned[i] - 4.0 * params.rating_margin
            hi = aligned[i] + 5.0 * params.rating_margin
            js = np.flatnonzero(dense[i])
            inside += int(((ratings_r[js] >= lo) & (ratings_r[js] <= hi)).sum())
            total += js.size
    assert inside / total >= 0.99


# --- interview edges -------------------------------------------------------------


def test_interview_full_and_empty(small_market):
    assert ml.interview_edges(small_market, ml.InterviewParams(1.0, 0.0)).is_full()
    nearly_empty = ml.interview_edges(small_market, ml.InterviewParams(0.0, 0.0))
    # rating gaps are a.s. nonzero
    assert nearly_empty.edge_count == 0


def test_interview_membership_rule():
    m = ml.generate_market(30, 30, model=ml.linear_model(0.5), seed=50)
    p, q = 0.2, 0.6
    edges = ml.interview_edges(m, ml.InterviewParams(p, q))
    gap = np.abs(m.ratings_left[:, None] - m.ratings_right[None, :])
    expected = (gap <= p) & (m.scores(LEFT) > q) & (m.scores(RIGHT).T > q)
    assert np.array_equal(mask(edges), expected)


def test_interview_params_validation():
    for window, cutoff in ((1.2, 0.5), (0.2, 3.0), (0.2, -0.1), (0.2, 1.5)):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ml.InterviewParams(window, cutoff)


@pytest.mark.parametrize("cutoffs", [{"score_cutoff_left": 3.0}, {"score_cutoff_right": -0.1},
                                     {"score_cutoff_left": 0.2, "score_cutoff_right": 1.5}])
def test_interview_params_asymmetric_cutoffs_validated(cutoffs):
    # the cutoff is one value for both sides; a per-side cutoff is refused,
    # not dropped in favour of the shared one
    with pytest.raises(TypeError):
        ml.InterviewParams(0.2, 0.5, **cutoffs)


# --- selected edges ---------------------------------------------------------------


def test_selected_weight_symmetry_and_cone():
    k, n = 15.0, 2000
    sigma = selected_cone_halfwidth(k, n)
    g = np.linspace(0.0, 1.0, 101)
    w = ml.selected_weight(g[:, None], g[None, :], k, sigma)
    assert np.allclose(w, w.T)
    outside = np.abs(g[:, None] - g[None, :]) > 2 * sigma
    assert (w[outside] == 0).all()
    assert ml.selected_weight(np.array(-0.01), np.array(0.0), k, sigma) == 0
    assert ml.selected_weight(np.array(1.01), np.array(1.0), k, sigma) == 0


def test_selected_weight_ratio_bound():
    k, n = 15.0, 2000
    sigma = selected_cone_halfwidth(k, n)
    g = np.linspace(0.0, 1.0, 201)
    w = ml.selected_weight(g[:, None], g[None, :], k, sigma)
    worst = 0.0
    for row in w:
        positive = row[row > 0]
        if positive.size >= 2:
            worst = max(worst, float(positive.max() / positive.min()))
    assert worst <= 3.0


def test_selected_survival_monte_carlo():
    k, n = 15.0, 2000
    sigma = selected_cone_halfwidth(k, n)
    p = float(ml.selected_survival(0.4, 0.45, k, sigma, n))
    rng = np.random.default_rng(0)
    draws = rng.random((100_000, 2))
    threshold = 1.0 - math.sqrt(p)
    hit = float(((draws[:, 0] >= threshold) & (draws[:, 1] >= threshold)).mean())
    se = math.sqrt(p * (1 - p) / draws.shape[0])
    assert abs(hit - p) <= 3 * se


def test_selected_edges_cone_respected():
    m = ml.generate_market(500, 500, model=ml.linear_model(0.8), seed=52)
    params = ml.SelectedSetParams(8.0)
    edges = ml.selected_edges(m, params)
    sigma = selected_cone_halfwidth(params.expected_degree, 500)
    gaps = np.abs(m.ratings_left[:, None] - m.ratings_right[None, :])
    assert (gaps[mask(edges)] <= 2 * sigma).all()


def test_selected_edges_param_validation():
    m = ml.generate_market(20, 20, model=ml.linear_model(0.5), seed=53)
    with pytest.raises(ValueError):
        ml.selected_edges(m, ml.SelectedSetParams(25.0))  # sigma above 1/2
    m2 = ml.generate_market(30, 20, model=ml.linear_model(0.5), seed=53, rating_ranges="unit")
    with pytest.raises(ValueError):
        ml.selected_edges(m2, ml.SelectedSetParams(2.0))


def test_selected_degree_near_target():
    m = ml.generate_market(2000, 2000, model=ml.linear_model(0.8), seed=54)
    stats = selected_degree_stats(m, ml.SelectedSetParams(15.0))
    assert stats["left"]["mid_mean"] == pytest.approx(15.0, rel=0.15)
    assert stats["right"]["mid_mean"] == pytest.approx(15.0, rel=0.15)


# --- truncated edges ----------------------------------------------------------------


def test_truncation_threshold_equals_bound_at_t_one():
    # for the linear model the t=1 reservation loss is exactly the bound
    from matchlab.analysis import _truncation_thresholds

    m = ml.generate_market(100, 100, model=ml.linear_model(0.8), seed=56)
    params = ml.loss_params_from_bound(0.12, m.model)
    thr = _truncation_thresholds(m, LEFT, 4.0 * params.rating_margin)
    assert np.allclose(thr[~np.isnan(thr)], 0.12)


def test_truncation_vacuous_when_threshold_huge(small_market):
    params = ml.loss_params_from_bound(0.3, small_market.model)
    t = 10.0  # rating shift far beyond the range: thresholds exceed any loss
    edges = ml.truncated_edges(small_market, params, t, t)
    assert edges.is_full()


def test_truncated_edges_remove_high_loss_pairs():
    m = ml.generate_market(200, 200, model=ml.linear_model(0.5), seed=57)
    params = ml.loss_params_from_bound(0.1, m.model)
    edges = ml.truncated_edges(m, params, 1.0, 1.0)
    bench_l = benchmark_vector(m, LEFT)
    loss_l = bench_l[:, None] - m.utility_matrix(LEFT)
    kept = mask(edges)
    assert (loss_l[kept] <= 0.1 + 1e-12).all()
    # and removed edges exceed one of the two thresholds
    bench_r = benchmark_vector(m, RIGHT)
    loss_r = bench_r[:, None] - m.utility_matrix(RIGHT)
    removed = ~kept
    assert ((loss_l[removed] > 0.1 - 1e-12) | (loss_r.T[removed] > 0.1 - 1e-12)).all()


def test_truncated_edges_validate_t(small_market):
    params = ml.loss_params_from_bound(0.1, small_market.model)
    with pytest.raises(ValueError):
        ml.truncated_edges(small_market, params, 0.5, 1.0)
