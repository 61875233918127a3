"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.  All
configurations are pinned (seeds included) so the suite is deterministic.
"""

import time

import numpy as np
import pytest

import matchlab as ml
from matchlab.analysis import (
    acceptable_edges,
    benchmark_vector,
    loss_threshold_edges,
    lower_bound_loss_level,
    selected_cone_halfwidth,
)
from matchlab.engine import EdgeSet, worst_partner
from matchlab.experiments import (
    ExperimentConfig,
    exp_edge_counts,
    exp_interview,
    exp_loss_scaling,
    exp_lower_bound,
    exp_min_L,
    exp_unique_partners,
)
from matchlab.market import LEFT, RIGHT

from conftest import brute_force_stable_set, exhaustive_max_matching, mask, selected_degree_stats


def report(number, ok, detail, t0, limit=None):
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    budget = "" if limit is None else f", budget {limit:.0f}s"
    print(f"criterion {number}: {status} — {detail} ({elapsed:.1f}s{budget})")
    assert ok, f"criterion {number}: {detail}"
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded its runtime budget"


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    checked = 0
    ok = True
    detail = ""
    for idx in range(200):
        if idx < 140:
            n = 2 + idx % 6
            edges = None
        else:
            n = 2 + idx % 4
            edges = EdgeSet(np.flatnonzero(rng.random((n, n)) < 0.65), n, n)
        m = ml.generate_market(n, n, model=ml.linear_model(float(rng.uniform(0.4, 0.9))),
                               seed=int(rng.integers(1 << 32)))
        stable = brute_force_stable_set(m, edges)
        left_da = ml.run_da(m, LEFT, edges)
        right_da = ml.run_da(m, RIGHT, edges)
        in_set = any(left_da.edges == s.edges for s in stable) and any(
            right_da.edges == s.edges for s in stable)
        ul = [worst_partner(m, LEFT, s)[0] for s in stable]
        ur = [worst_partner(m, RIGHT, s)[0] for s in stable]
        left_best = all((worst_partner(m, LEFT, left_da)[0] >= u).all() for u in ul)
        right_best = all((worst_partner(m, RIGHT, right_da)[0] >= u).all() for u in ur)
        unmatched_l = {tuple(np.flatnonzero(~s.matched_mask(LEFT)).tolist()) for s in stable}
        unmatched_r = {tuple(np.flatnonzero(~s.matched_mask(RIGHT)).tolist()) for s in stable}
        invariant = len(unmatched_l) == 1 and len(unmatched_r) == 1
        if not (in_set and left_best and right_best and invariant):
            ok = False
            detail = f"market {idx} (n={n}) failed the oracle comparison"
            break
        checked += 1
    if ok:
        detail = f"DA equals the proposer-optimal stable matching on {checked} markets"
    report(1, ok, detail, t0, limit=30)


def test_criterion_02_stability_audit():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    total = 0
    for idx in range(50):
        weight = 0.5 if idx % 2 == 0 else 0.8
        m = ml.generate_market(500, 500, model=ml.linear_model(weight),
                               seed=int(rng.integers(1 << 32)))
        sigma = 3 * 0.15 / (4 * weight)
        cases = [
            (None, ml.run_da(m, LEFT)),
            (None, ml.run_da(m, RIGHT)),
            (acceptable_edges(m, 0.15, 0.15, sigma, sigma), None),
            (ml.interview_edges(m, ml.InterviewParams(0.2, 0.5)), None),
        ]
        for edges, matching in cases:
            if matching is None:
                matching = ml.run_da(m, LEFT, edges)
            total += len(ml.verify_stability(m, edges, matching))
    report(2, total == 0,
           f"{total} blocking pairs over 50 markets x 4 runs (full and restricted)",
           t0, limit=120)


def test_criterion_03_restriction_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1003)
    ok = True
    detail = ""
    for idx in range(50):
        m = ml.generate_market(500, 500, model=ml.linear_model(0.8),
                               seed=int(rng.integers(1 << 32)))
        full_left = ml.run_da(m, LEFT)
        left_opt, right_opt = full_left, ml.run_da(m, RIGHT)
        viable = ml.viable_edges(m)
        if ml.run_da(m, LEFT, viable).edges != full_left.edges:
            ok, detail = False, f"market {idx}: DA(viable) != DA(full)"
            break
        pess_l = benchmark_vector(m, LEFT) - ml.achieved_utilities(m, right_opt, LEFT)
        pess_r = benchmark_vector(m, RIGHT) - ml.achieved_utilities(m, left_opt, RIGHT)
        for margin in (0.02, 0.05, 0.1):
            superset = loss_threshold_edges(m, pess_l + margin, pess_r + margin)
            if (viable & superset) != viable:
                ok, detail = False, f"market {idx}: threshold set not a superset"
                break
            if ml.run_da(m, LEFT, superset).edges != full_left.edges:
                ok, detail = False, f"market {idx}: DA(superset {margin}) != DA(full)"
                break
        if not ok:
            break
    if ok:
        detail = "DA(viable) and three loss-threshold supersets equal DA(full) on 50 markets"
    report(3, ok, detail, t0, limit=300)


CRITERION_4_5_SEED = 1


def test_criterion_04_minimal_L():
    t0 = time.time()
    cfg = ExperimentConfig(experiment="min-L", n_left=2000, weight=0.8, runs=20,
                           seed=CRITERION_4_5_SEED, sigma_rule="theory")
    rep = exp_min_L(cfg)
    value = rep.summary["min_L"]
    ok = 0.10 <= value <= 0.15 and not rep.summary["sentinel"]
    report(4, ok, f"exp_min_L = {value} (band [0.10, 0.15])", t0, limit=900)


def test_criterion_05_edge_and_proposal_counts():
    t0 = time.time()
    sigma = 3 * 0.12 / (4 * 0.8)
    cfg = ExperimentConfig(experiment="edge-counts", n_left=2000, weight=0.8, runs=20,
                           seed=CRITERION_4_5_SEED, loss_cap_left=0.12,
                           sigma_left=sigma, sigma_right=sigma)
    rep = exp_edge_counts(cfg)
    lists = rep.summary["top_list_mean"]
    props = rep.summary["top_proposals_mean"]
    ok = 105 <= lists <= 195 and 21 <= props <= 39
    report(5, ok,
           f"top-80% mean list {lists:.1f} (band [105, 195]), proposals {props:.1f} (band [21, 39])",
           t0, limit=900)


def test_criterion_06_many_to_one_counts():
    t0 = time.time()
    cfg = ExperimentConfig(experiment="edge-counts", n_left=2000, n_right=250, cap_right=8,
                           weight=0.8, runs=20, seed=2024,
                           loss_cap_left=0.24, loss_cap_right=0.14)
    rep = exp_edge_counts(cfg)
    lists = rep.summary["top_list_mean"]
    props = rep.summary["top_proposals_mean"]
    ok = 38 <= lists <= 72 and 4 <= props <= 10
    report(6, ok,
           f"worker top-80% mean list {lists:.1f} (band [38, 72]), proposals {props:.1f} (band [4, 10])",
           t0, limit=900)


def test_criterion_07_unique_stable_partners():
    t0 = time.time()
    cfg = ExperimentConfig(experiment="unique-partners", n_left=2000, weight=0.8,
                           runs=20, seed=2024)
    rep = exp_unique_partners(cfg)
    top = rep.summary["top90_fraction"]
    bottom = rep.summary["bottom_decile_fraction"]
    audits = rep.summary["blocking_pairs_total"]
    ok = top <= 0.02 and bottom > top and audits == 0
    report(7, ok,
           f"top-90% multi-stable fraction {top:.4f} (<= 0.02), bottom decile {bottom:.4f} (> top)",
           t0, limit=600)


def test_criterion_08_interview_protocol():
    t0 = time.time()
    cfg = ExperimentConfig(experiment="interview", n_left=2000, n_right=250, cap_right=8,
                           weight=0.8, runs=20, seed=2024,
                           rating_window=0.19, score_cutoff=0.60)
    rep = exp_interview(cfg)
    frac = rep.summary["unmatched_fraction"]
    share = rep.summary["bottom_two_decile_share"]
    ok = 0.005 <= frac <= 0.03 and share > 0.60
    report(8, ok,
           f"unmatched fraction {frac:.4f} (band [0.005, 0.03]), bottom-two-decile share {share:.2f} (> 0.60)",
           t0, limit=600)


def test_criterion_09_loss_scaling():
    t0 = time.time()
    cfg = ExperimentConfig(experiment="loss-scaling", weight=0.5, runs=20, seed=2024,
                           n_values=(500, 4000), exceedance_n=2000, h_values=(0, 1, 2, 3, 4),
                           failure_exponent=1.0)
    rep = exp_loss_scaling(cfg)
    ratio = rep.summary["ratio_small_over_large"]
    counts = rep.summary["exceedance"]["mean_counts"]
    monotone = rep.summary["exceedance"]["nested_thresholds_monotone"]
    ok = 1.4 <= ratio <= 2.8 and monotone
    report(9, ok,
           f"median max-loss ratio n=500/n=4000 = {ratio:.2f} (band [1.4, 2.8], theory 2.0); "
           f"exceedance counts {counts} monotone under nested thresholds: {monotone}",
           t0, limit=1200)


def test_criterion_10_selected_edge_set():
    t0 = time.time()
    k, n = 15.0, 2000
    sigma = selected_cone_halfwidth(k, n)
    grid = np.linspace(0.0, 1.0, 201)
    w = ml.selected_weight(grid[:, None], grid[None, :], k, sigma)
    symmetric = np.allclose(w, w.T)
    outside = np.abs(grid[:, None] - grid[None, :]) > 2 * sigma
    zero_outside = bool((w[outside] == 0).all())
    worst_ratio = 0.0
    for row in w:
        positive = row[row > 0]
        if positive.size >= 2:
            worst_ratio = max(worst_ratio, float(positive.max() / positive.min()))
    mid_means = []
    for seed in (54, 55, 56):
        m = ml.generate_market(n, n, model=ml.linear_model(0.8), seed=seed)
        stats = selected_degree_stats(m, ml.SelectedSetParams(k))
        mid_means.extend([stats[LEFT]["mid_mean"], stats[RIGHT]["mid_mean"]])
    within = all(abs(v - k) <= 0.15 * k for v in mid_means)
    ok = symmetric and zero_outside and worst_ratio <= 3.0 and within
    report(10, ok,
           f"grid audit symmetric={symmetric}, zero outside 2-sigma cone={zero_outside}, "
           f"ratio {worst_ratio:.2f} <= 3; mid-rating mean degrees {[round(v, 2) for v in mid_means]} "
           f"within 15% of k={k:g}",
           t0, limit=300)


def test_criterion_11_double_cut_dominance():
    t0 = time.time()
    rng = np.random.default_rng(1111)
    violations = 0
    for idx in range(100):
        m = ml.generate_market(200, 200, model=ml.linear_model(0.5),
                               seed=int(rng.integers(1 << 32)))
        target = int(rng.integers(200))
        if idx % 2 == 0:
            alpha = ml.theoretical_loss_params(200, 1.0, m.model).rating_margin
        else:
            alpha = 0.05
        cut = ml.CutSpec(target=target, rating_floor=float(m.ratings_right[target]) - alpha)
        full_u = worst_partner(m, RIGHT, ml.run_da(m, LEFT))[0][target]
        cut_u = worst_partner(m, RIGHT, ml.run_double_cut_da(m, LEFT, cut))[0][target]
        if not full_u >= cut_u:
            violations += 1
    report(11, violations == 0,
           f"{violations} dominance violations over 100 (market, target) pairs",
           t0, limit=120)


def test_criterion_12_lower_bound_probe():
    t0 = time.time()
    cfg = ExperimentConfig(experiment="lower-bound", n_left=2000, weight=0.5,
                           runs=200, seed=2024)
    rep = exp_lower_bound(cfg)
    frac = rep.summary["no_perfect_fraction"]
    floor = rep.summary["reference_floor"]
    harness_ok = 0.0 <= frac <= 1.0 and rep.summary["loss_level"] == pytest.approx(
        lower_bound_loss_level(2000))

    rng = np.random.default_rng(777)
    verdicts_ok = True
    for _ in range(30):
        n = int(rng.integers(2, 9))
        m = ml.generate_market(n, n, model=ml.linear_model(0.5), seed=int(rng.integers(1 << 32)))
        level = lower_bound_loss_level(n)
        edges = acceptable_edges(m, level, level, 1.5 * level, 1.5 * level)
        if ml.max_bipartite_matching(edges) != exhaustive_max_matching(mask(edges)):
            verdicts_ok = False
            break
    ok = harness_ok and verdicts_ok
    report(12, ok,
           f"no-perfect-matching frequency {frac:.3f} over 200 runs "
           f"(reference floor {floor:.3f}; observational, proved regime needs n >= 32000); "
           f"small-n verdicts match brute force: {verdicts_ok}",
           t0)
