import dataclasses
import json
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matchlab as ml
from matchlab import experiments
from matchlab.experiments import (
    EXPERIMENTS,
    SHARED_FIELDS,
    ExperimentConfig,
    _loss_grid,
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

from conftest import exhaustive_max_matching, mask


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


# a value other than the default for every field some suite does not read
OFF_DEFAULT = dict(
    proposing_side=RIGHT, bottom_frac=0.3, loss_cap_left=0.3, loss_cap_right=0.3,
    sigma_left=0.1, sigma_right=0.1, sigma_rule="fixed", grid_start=0.02, grid_stop=0.4,
    grid_step=0.02, rating_window=0.3, score_cutoff=0.4, n_values=(40, 80), exceedance_n=60,
    h_values=(0, 1), failure_exponent=2.0, bottom_sigma=0.1, nu=0.3, eta=3.0, loss_bound=0.2,
    expected_degree=5.0,
)
UNREAD_FIELDS = [(dict(experiment=suite, **{name: value}), f"{suite} does not read {name};")
                 for suite, declared in sorted(EXPERIMENTS.items())
                 for name, value in OFF_DEFAULT.items()
                 if name not in SHARED_FIELDS + declared.fields]


@pytest.mark.parametrize("bad,message", [
    (dict(proposing_side="up"), "proposing_side"),
    (dict(jobs=0), "jobs"),
    (dict(n_left=0), "at least one agent"),
    (dict(n_right=0), "at least one agent"),
    (dict(sigma_rule="loose"), "sigma_rule"),
    (dict(grid_step=0.0), "grid_step"),
    (dict(grid_step=-0.01), "grid_step"),
    (dict(grid_start=0.5, grid_stop=0.1), "grid_start"),
    (dict(experiment="nope"), "unknown experiment 'nope'"),
    *UNREAD_FIELDS,
])
def test_config_rejects_invalid_fields(bad, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{"experiment": "min-L", **bad})


def test_every_config_field_has_an_off_default_value():
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(OFF_DEFAULT) == names - {"experiment", *SHARED_FIELDS}
    assert all(getattr(ExperimentConfig, name) != value for name, value in OFF_DEFAULT.items())


# configurations under which, between them, each suite reads every field
READ_CASES = {
    "edge-counts": [dict(loss_cap_left=0.3)],
    "min-L": [dict(grid_step=0.05), dict(grid_step=0.05, sigma_rule="fixed")],
    "unique-partners": [{}],
    "interview": [{}],
    "loss-scaling": [dict(n_values=(20, 40), exceedance_n=20)],
    "lower-bound": [{}],
    "truncation": [{}],
}


def test_suites_read_exactly_the_fields_they_declare(monkeypatch):
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    read = set()

    class Recording(ExperimentConfig):
        def __getattribute__(self, name):
            if name in names:
                read.add(name)
            return super().__getattribute__(name)

    # the report echoes every field; the suite itself is what is under test
    monkeypatch.setattr(experiments, "_report", lambda config, rows, summary: None)
    assert set(READ_CASES) == set(EXPERIMENTS)
    for suite, cases in READ_CASES.items():
        seen = set()
        for case in cases:
            config = Recording(suite, n_left=20, runs=2, seed=3, **case)
            read.clear()  # construction checks every field
            EXPERIMENTS[suite].run(config)
            seen |= read
        assert seen == {*SHARED_FIELDS, *EXPERIMENTS[suite].fields}, suite


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


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1000), st.integers(0, 1000), st.integers(1, 1000))
@example(0, 1000, 350)  # 0.35 does not divide [0, 1]: the grid ends at 0.7
@example(10, 500, 10)  # (0.50 - 0.01) / 0.01 = 48.99999999999999, yet 0.5 stays
def test_loss_grid_ends_within_one_step_of_grid_stop(a, b, c):
    # decimal grids in thousandths
    start, stop = sorted((a / 1000, b / 1000))
    step = c / 1000
    grid = _loss_grid(ExperimentConfig("min-L", grid_start=start, grid_stop=stop, grid_step=step))
    assert grid[0] == start
    assert np.allclose(np.diff(grid), step)
    assert grid.max() <= stop < grid[-1] + step - 1e-9


def da_at(market, loss_cap, config):
    """Naive oracle: DA on the acceptable set at `loss_cap`, or None when an
    agent has no edge there (that level fails without a DA run)."""
    sigma_l, sigma_r = experiments._zone_widths(config, market, loss_cap)
    edges = ml.acceptable_edges(market, loss_cap, loss_cap, sigma_l, sigma_r)
    if (edges.degrees(LEFT) == 0).any() or (edges.degrees(RIGHT) == 0).any():
        return None
    return experiments.run_da(market, config.proposing_side, edges)


def all_matched_at(market, loss_cap, config):
    """Naive oracle: does DA on the acceptable set at `loss_cap` match everyone?"""
    matching = da_at(market, loss_cap, config)
    return matching is not None and experiments._everyone_matched(matching)


def naive_first_level(market, config, start=0):
    """What `_min_L_run(config, run, start)` should return for `market`, by
    the naive oracle, less the run index."""
    grid = _loss_grid(config)
    for idx in range(start, len(grid)):
        matching = da_at(market, float(grid[idx]), config)
        if matching is not None and experiments._everyone_matched(matching):
            return {"first_L": float(grid[idx]), "grid_index": idx, "matched": True,
                    "saturated": experiments._fills_every_slot(market, matching)}
    return {"first_L": float(grid[-1]), "grid_index": len(grid) - 1, "matched": False,
            "saturated": False}


MIN_L_CASES = {
    "theory": dict(grid_step=0.02),
    "fixed": dict(grid_step=0.02, sigma_rule="fixed", sigma_left=0.1, sigma_right=0.05),
    # first_L past the scan's first two spans of grid indices (0-7, 8-15)
    "beyond-first-span": dict(grid_step=0.005),
    "sentinel": dict(grid_start=0.001, grid_stop=0.002, grid_step=0.001, sigma_rule="fixed"),
    # found by search: with spare capacity a larger acceptable set can leave
    # an agent unmatched, so a run that matched below the first candidate
    # fails there and re-verification takes more than one round
    "multi-round": dict(n_left=30, cap_left=2, cap_right=2, seed=16, grid_step=0.02),
}


def min_L_config(case, **extra):
    return ExperimentConfig(**{"experiment": "min-L", "n_left": 80, "weight": 0.8, "runs": 3,
                               "seed": 11, "grid_start": 0.02, "grid_stop": 0.5,
                               **MIN_L_CASES[case], **extra})


def test_min_L_matches_naive_scan(monkeypatch):
    from matchlab.experiments import _min_L_run

    # every edge set DA runs on, in order
    da_edges = []
    run_da = experiments.run_da

    def recording_run_da(market, side, edges):
        da_edges.append(mask(edges).tobytes())
        return run_da(market, side, edges)

    monkeypatch.setattr(experiments, "run_da", recording_run_da)
    # the grid index each re-verification scan starts from
    rescans = []

    def recording_min_L_run(config, run_index, start=0):
        if start > 0:
            rescans.append(start)
        return _min_L_run(config, run_index, start)

    monkeypatch.setattr(experiments, "_min_L_run", recording_min_L_run)

    for case in MIN_L_CASES:
        cfg = min_L_config(case)
        grid = _loss_grid(cfg)

        for run in range(cfg.runs):
            da_edges.clear()
            want = {"run": run, **naive_first_level(cfg.make_market(run), cfg)}
            naive_edges = da_edges.copy()
            da_edges.clear()
            assert _min_L_run(cfg, run) == want, case
            assert da_edges == naive_edges, case  # DA runs on the same sets, no more, no fewer
        if case == "beyond-first-span":
            assert want["grid_index"] >= 16

        rescans.clear()
        report = exp_min_L(cfg)
        if case == "multi-round":
            assert len(set(rescans)) > 1, rescans  # rescans from more than one candidate
        elif cfg.cap_left == cfg.cap_right == 1:
            assert not rescans, (case, rescans)  # a run that matches everyone is full
        markets = [cfg.make_market(i) for i in range(cfg.runs)]
        naive = next((float(cap) for cap in grid
                      if all(all_matched_at(m, float(cap), cfg) for m in markets)), None)
        if naive is None:
            assert report.summary["sentinel"] and not report.summary["verified"], case
            assert report.summary["min_L"] == pytest.approx(float(grid[-1])), case
        else:
            assert report.summary["verified"] and not report.summary["sentinel"], case
            assert report.summary["min_L"] == pytest.approx(naive), case


def test_min_L_rescan_tests_its_start_first():
    # a rescan from any start above a run's first level returns the naive
    # oracle's answer from that start, whether the start matches or not
    from matchlab.experiments import _min_L_run

    failed_starts = 0
    for case in ("theory", "fixed", "multi-round"):
        cfg = min_L_config(case)
        grid = _loss_grid(cfg)
        for run in range(cfg.runs):
            market = cfg.make_market(run)
            for start in range(_min_L_run(cfg, run)["grid_index"] + 1, len(grid)):
                want = naive_first_level(market, cfg, start)
                assert _min_L_run(cfg, run, start) == {"run": run, **want}, (case, run, start)
                failed_starts += want["grid_index"] > start or not want["matched"]
    assert failed_starts  # the multi-round case rescans from a start that fails


@st.composite
def min_L_shapes(draw):
    """(n_left, n_right, cap_left, cap_right): capacities 1-3 on each side,
    with capacity-balanced sizes (n_left * cap_left == n_right * cap_right)
    in about three draws of four."""
    cap_left, cap_right, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 40))
    n_right = draw(st.integers(1, 60)) if draw(st.integers(0, 3)) == 0 else n * cap_left
    return n * cap_right, n_right, cap_left, cap_right


@settings(max_examples=100, deadline=None)
@given(min_L_shapes(), st.floats(0.05, 0.95), st.integers(0, 2**32),
       st.sampled_from(["theory", "fixed"]), st.integers(0, 300), st.integers(0, 300),
       st.integers(0, 200), st.integers(1, 60), st.integers(2, 20), st.sampled_from([LEFT, RIGHT]))
# found by search: grid level 8 matches everyone with slots to spare, level 9 does not
@example((30, 30, 2, 2), 0.8, 26, "theory", 0, 0, 20, 20, 25, LEFT)
def test_one_to_one_min_L_levels_are_nested(shape, weight, seed, rule, sigma_left, sigma_right,
                                            start, step, count, side):
    # what lets min-L skip the rescan of a saturated run: once a grid
    # level's DA matching fills every slot on both sides, every higher
    # level's matches everyone.  In a one-to-one market matching everyone
    # fills every slot, so the levels that match everyone are nested; with
    # spare capacity they need not be (the example above).
    n_left, n_right, cap_left, cap_right = shape
    cfg = ExperimentConfig("min-L", n_left=n_left, n_right=n_right, cap_left=cap_left,
                           cap_right=cap_right, weight=weight, seed=seed, proposing_side=side,
                           sigma_rule=rule, sigma_left=sigma_left / 1000,
                           sigma_right=sigma_right / 1000, grid_start=start / 1000,
                           grid_step=step / 1000, grid_stop=(start + step * (count - 1)) / 1000)
    market = cfg.make_market(0)
    runs = [da_at(market, float(cap), cfg) for cap in _loss_grid(cfg)]
    matched = [m is not None and experiments._everyone_matched(m) for m in runs]
    full = [m is not None and experiments._fills_every_slot(market, m) for m in runs]
    if True in full:
        assert all(matched[full.index(True):]), (full, matched)


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
    cfg = min_L_config("multi-round")
    assert exp_min_L(cfg).summary["verified"]
    assert len(made) >= cfg.runs + 2  # the re-verification pass made several markets
    # a one-to-one run that matches everyone fills every slot: no rescan
    made.clear()
    report = exp_min_L(ExperimentConfig("min-L", n_left=60, runs=4, seed=3, grid_step=0.02))
    assert report.summary["verified"]
    assert len(made) == 4


def test_loss_scaling_draws_each_market_once(monkeypatch):
    made = []
    make_market = ExperimentConfig.make_market
    monkeypatch.setattr(ExperimentConfig, "make_market",
                        lambda self, *a, **k: made.append(a) or make_market(self, *a, **k))
    # the exceedance runs at n = 40 are the scaling runs at n = 40
    cfg = ExperimentConfig(experiment="loss-scaling", weight=0.5, runs=2, seed=1,
                           n_values=(40, 80), exceedance_n=40)
    report = exp_loss_scaling(cfg)
    assert len(made) == 4
    assert [r["kind"] for r in report.rows].count("exceedance") == 2 * len(cfg.h_values)


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

    rng = np.random.default_rng(27)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        m = ml.generate_market(n, n, model=ml.linear_model(0.5), seed=int(rng.integers(1 << 32)))
        level = lower_bound_loss_level(n)
        edges = acceptable_edges(m, level, level, 1.5 * level, 1.5 * level)
        assert ml.max_bipartite_matching(edges) == exhaustive_max_matching(mask(edges))


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


def test_min_L_jobs_writes_same_report(tmp_path):
    from matchlab.cli import main

    cases = {
        "one-round": ["--n", "60", "--runs", "3", "--grid-step", "0.02", "--seed", "17"],
        # MIN_L_CASES["multi-round"]: re-verification rescans in parallel too
        "multi-round": ["--n", "30", "--cap-left", "2", "--d", "2", "--runs", "3", "--seed", "16",
                        "--grid-start", "0.02", "--grid-step", "0.02"],
    }
    for case, argv in cases.items():
        one, two = (tmp_path / case / str(jobs) for jobs in (1, 2))
        for jobs, out in ((1, one), (2, two)):
            assert main(["experiment", "min-L", *argv, "--jobs", str(jobs), "--out", str(out)]) == 0
        assert (one / "report.csv").read_bytes() == (two / "report.csv").read_bytes(), case
        # the same summary apart from the echo of --jobs itself
        summary = (two / "summary.json").read_text().replace('"jobs": 2,', '"jobs": 1,')
        assert summary == (one / "summary.json").read_text(), case
