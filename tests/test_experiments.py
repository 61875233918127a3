import json
import weakref

import numpy as np
import pytest

import matchlab as ml
from matchlab.experiments import (
    ExperimentConfig,
    decile_labels,
    derive_run_seed,
    exp_edge_counts,
    exp_interview,
    exp_loss_scaling,
    exp_lower_bound,
    exp_min_L,
    exp_truncation,
    exp_unique_partners,
    run_experiment,
)
from matchlab.market import LEFT, RIGHT


def test_decile_partition_sizes():
    for n in (10, 97, 100, 2003):
        labels = decile_labels(n)
        sizes = np.bincount(labels, minlength=10)
        assert sizes.sum() == n
        assert sizes.max() - sizes.min() <= 1


def test_run_seeds_distinct_and_deterministic():
    seeds = [derive_run_seed(7, i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert seeds == [derive_run_seed(7, i) for i in range(50)]


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(experiment="nope"))


def test_edge_counts_report_shape(tmp_path):
    cfg = ExperimentConfig(experiment="edge-counts", n_left=150, weight=0.8,
                           runs=3, seed=5, loss_cap_left=0.3)
    report = exp_edge_counts(cfg)
    assert len(report.rows) == 3 * 2 * 10
    assert 0.0 <= report.summary["all_matched_fraction"] <= 1.0
    assert report.summary["top_list_mean"] > 0
    report.write_csv(tmp_path / "r.csv")
    report.write_json(tmp_path / "r.json")
    header = (tmp_path / "r.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["run", "metric", "decile"]
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["config"]["n_left"] == 150
    assert len(payload["run_seeds"]) == 3


def test_reports_byte_identical(tmp_path):
    cfg = ExperimentConfig(experiment="edge-counts", n_left=100, weight=0.8,
                           runs=2, seed=9, loss_cap_left=0.3)
    a, b = exp_edge_counts(cfg), exp_edge_counts(cfg)
    a.write_csv(tmp_path / "a.csv")
    b.write_csv(tmp_path / "b.csv")
    a.write_json(tmp_path / "a.json")
    b.write_json(tmp_path / "b.json")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_min_L_terminates_with_wide_grid():
    cfg = ExperimentConfig(experiment="min-L", n_left=60, weight=0.8, runs=2, seed=3,
                           grid_start=0.2, grid_stop=1.0, grid_step=0.2)
    report = exp_min_L(cfg)
    assert not report.summary["sentinel"]
    assert report.summary["min_L"] in (0.2, 0.4, 0.6, 0.8, 1.0)


def test_min_L_sentinel_when_grid_insufficient():
    cfg = ExperimentConfig(experiment="min-L", n_left=60, weight=0.8, runs=2, seed=3,
                           grid_start=0.001, grid_stop=0.002, grid_step=0.001,
                           sigma_rule="fixed")
    report = exp_min_L(cfg)
    assert report.summary["sentinel"]
    assert report.summary["min_L"] == pytest.approx(0.002)


def test_min_L_matches_naive_scan():
    from matchlab.experiments import _all_matched_at, _loss_grid

    cfg = ExperimentConfig(experiment="min-L", n_left=80, weight=0.8, runs=3, seed=11,
                           grid_start=0.02, grid_stop=0.5, grid_step=0.02)
    report = exp_min_L(cfg)
    grid = _loss_grid(cfg)
    naive = None
    markets = [cfg.make_market(i) for i in range(cfg.runs)]
    for cap in grid:
        if all(_all_matched_at(m, float(cap), cfg) for m in markets):
            naive = float(cap)
            break
    assert report.summary["min_L"] == pytest.approx(naive)


def test_min_L_reverification_holds_one_market_at_a_time(monkeypatch):
    made = []
    make_market = ExperimentConfig.make_market

    def tracked(self, *args, **kwargs):
        alive = [ref for ref in made if ref() is not None]
        assert not alive, f"{len(alive)} earlier market(s) still alive when the next is made"
        market = make_market(self, *args, **kwargs)
        made.append(weakref.ref(market))
        return market

    monkeypatch.setattr(ExperimentConfig, "make_market", tracked)
    report = exp_min_L(ExperimentConfig("min-L", n_left=60, runs=4, seed=3, grid_step=0.02))
    assert report.summary["verified"]
    assert len(made) >= 4 + 2  # the re-verification pass made several markets


def test_unique_partners_report(tmp_path):
    cfg = ExperimentConfig(experiment="unique-partners", n_left=120, weight=0.8, runs=3, seed=21)
    report = exp_unique_partners(cfg)
    assert report.summary["blocking_pairs_total"] == 0
    assert len(report.rows) == 30
    sizes = [r["size"] for r in report.rows if r["run"] == 0]
    assert sum(sizes) == 120


def test_unique_partners_assortative_near_zero():
    cfg = ExperimentConfig(experiment="unique-partners", n_left=150, weight=0.999, runs=2, seed=22)
    report = exp_unique_partners(cfg)
    assert report.summary["top90_fraction"] <= 0.01


def test_interview_complete_edges_all_matched():
    cfg = ExperimentConfig(experiment="interview", n_left=64, n_right=8, cap_right=8,
                           weight=0.8, runs=2, seed=23, rating_window=1.0, score_cutoff=0.0)
    report = exp_interview(cfg)
    assert report.summary["unmatched_fraction"] == 0.0
    assert report.summary["blocking_pairs_total"] == 0


def test_interview_report_decile_rows():
    cfg = ExperimentConfig(experiment="interview", n_left=160, n_right=20, cap_right=8,
                           weight=0.8, runs=2, seed=24, rating_window=0.3, score_cutoff=0.4)
    report = exp_interview(cfg)
    assert len(report.rows) == 20
    assert report.summary["mean_degree"] > 0


def test_loss_scaling_small():
    cfg = ExperimentConfig(experiment="loss-scaling", weight=0.5, runs=3, seed=25,
                           n_values=(100, 400), exceedance_n=200, h_values=(0, 1, 2))
    report = exp_loss_scaling(cfg)
    med = report.summary["median_max_loss"]
    assert med["100"] > med["400"] > 0
    counts = report.summary["exceedance"]["mean_counts"]
    assert counts == sorted(counts)
    assert report.summary["exceedance"]["nested_thresholds_monotone"]


def test_loss_scaling_single_run_max_dominates():
    cfg = ExperimentConfig(experiment="loss-scaling", weight=0.5, runs=1, seed=26,
                           n_values=(150,), exceedance_n=None)
    report = exp_loss_scaling(cfg)
    row = report.rows[0]
    assert row["max_loss"] >= row["q90"] >= row["q50"]


def test_lower_bound_small_verdicts_match_brute_force():
    from matchlab.analysis import acceptable_edges, lower_bound_loss_level
    from matchlab.engine import EdgeSet

    from conftest import exhaustive_max_matching

    rng = np.random.default_rng(27)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        m = ml.generate_market(n, n, model=ml.linear_model(0.5), seed=int(rng.integers(1 << 32)))
        level = lower_bound_loss_level(n)
        edges = acceptable_edges(m, level, level, 1.5 * level, 1.5 * level)
        assert ml.max_bipartite_matching(edges) == exhaustive_max_matching(edges.mask)


def test_lower_bound_report_fields():
    cfg = ExperimentConfig(experiment="lower-bound", n_left=100, weight=0.5, runs=4, seed=28)
    report = exp_lower_bound(cfg)
    assert 0.0 <= report.summary["no_perfect_fraction"] <= 1.0
    assert report.summary["reference_floor"] == pytest.approx(0.25 * 100 ** -0.125)
    assert len(report.rows) == 4


def test_truncation_vacuous_thresholds_match_everyone():
    # theoretical bound at small n exceeds the utility range: nothing truncated
    cfg = ExperimentConfig(experiment="truncation", n_left=80, weight=0.8, runs=2, seed=29)
    report = exp_truncation(cfg)
    assert report.summary["match_rate_mean"] == 1.0
    assert report.summary["over_threshold_total"] == 0


def test_truncation_with_real_bound():
    cfg = ExperimentConfig(experiment="truncation", n_left=400, weight=0.8, runs=2,
                           seed=30, loss_bound=0.25)
    report = exp_truncation(cfg)
    assert report.summary["match_rate_mean"] >= 0.99
    assert report.summary["over_threshold_total"] == 0
    assert report.summary["t_right"] >= report.summary["t_left"] >= 1.0


def test_truncation_desk_scale_matches_and_bottom_proposes_more():
    # reservation strategies on the empirical loss bound: everyone matches,
    # and bottom-zone proposers work through more of their lists
    cfg = ExperimentConfig(experiment="truncation", n_left=2000, weight=0.8, runs=10,
                           seed=32, loss_bound=0.12)
    report = exp_truncation(cfg)
    assert report.summary["match_rate_mean"] >= 0.99
    assert report.summary["rest_mean_proposals"] <= report.summary["bottom_mean_proposals"]
    assert report.summary["over_threshold_total"] == 0


def test_jobs_parallel_matches_serial():
    base = dict(experiment="edge-counts", n_left=100, weight=0.8, runs=4, seed=31,
                loss_cap_left=0.3)
    serial = exp_edge_counts(ExperimentConfig(**base))
    parallel = exp_edge_counts(ExperimentConfig(**base, jobs=2))
    serial.config["jobs"] = parallel.config["jobs"]
    assert serial.rows == parallel.rows
    assert serial.summary == parallel.summary


def test_loss_scaling_jobs_writes_same_bytes(tmp_path):
    base = dict(experiment="loss-scaling", weight=0.5, runs=3, seed=33,
                n_values=(40, 80), exceedance_n=60, h_values=(0, 1, 2))
    for jobs in (1, 2):
        report = exp_loss_scaling(ExperimentConfig(**base, jobs=jobs))
        report.config["jobs"] = 1  # the echo of the flag itself may differ
        report.write_csv(tmp_path / f"report-{jobs}.csv")
        report.write_json(tmp_path / f"summary-{jobs}.json")
    for name in ("report-{}.csv", "summary-{}.json"):
        assert (tmp_path / name.format(1)).read_bytes() == (tmp_path / name.format(2)).read_bytes()
