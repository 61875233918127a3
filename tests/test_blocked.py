"""The row-blocked edge-set kernels against their dense whole-matrix forms.

Every builder that combines a left-side test with a right-side test fills
its mask one block of left rows at a time.  These tests compare each one,
bit for bit, with the dense formula it replaced (kept in conftest.py), on
sizes below, at and across the block size, on unbalanced sides, and on
coarse score grids where exact ties are common.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchlab as ml
from matchlab.analysis import _truncation_thresholds
from matchlab.engine import CutSpec, EdgeSet, _candidate_lists, double_cut_edges
from matchlab.market import _BLOCK_ROWS, LEFT, RIGHT

from conftest import (
    dense_acceptable_edges,
    dense_double_cut_edges,
    dense_interview_edges,
    dense_loss_threshold_edges,
    dense_selected_edges,
    dense_utility_matrix,
    dense_verify_stability,
    dense_viable_edges,
    per_row_candidate_lists,
)

B = _BLOCK_ROWS
SIZES = [1, 3, B - 1, B, B + 1, 2 * B + 1]
GRID = [0.0, 0.1, 0.25, 0.5, 1.0]


@st.composite
def coarse_markets(draw, balanced=False, one_to_one=False):
    """Market whose ratings and scores sit on a grid of a few levels, with
    half weight on each, so equal utilities are common."""
    n_left = draw(st.sampled_from(SIZES))
    n_right = n_left if balanced else draw(st.sampled_from(SIZES))
    caps = (1, 1) if one_to_one else (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    levels = draw(st.sampled_from([2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def grid(*shape):
        return rng.integers(0, levels, shape) / (levels - 1)

    market = ml.Market(
        n_left=n_left, n_right=n_right, cap_left=caps[0], cap_right=caps[1],
        ratings_left=grid(n_left), ratings_right=grid(n_right),
        scores_left=grid(n_left, n_right), scores_right=grid(n_right, n_left),
        model=ml.linear_model(0.5), seed=None,
    )
    return market, rng


def random_mask(rng, market, density):
    """Edge mask with the given density, plus one empty row and column."""
    mask = rng.random((market.n_left, market.n_right)) < density
    mask[rng.integers(market.n_left)] = False
    mask[:, rng.integers(market.n_right)] = False
    return EdgeSet(mask)


def random_matching(rng, market):
    """A capacity-respecting matching that need not be stable."""
    room = {LEFT: np.full(market.n_left, market.cap_left),
            RIGHT: np.full(market.n_right, market.cap_right)}
    sets = [[] for _ in range(market.n_left)]
    for i, j in zip(rng.integers(market.n_left, size=2 * market.n_left),
                    rng.integers(market.n_right, size=2 * market.n_left)):
        if room[LEFT][i] and room[RIGHT][j] and j not in sets[i]:
            sets[i].append(int(j))
            room[LEFT][i] -= 1
            room[RIGHT][j] -= 1
    return ml.Matching.from_left_sets(sets, market.n_right)


@settings(max_examples=60, deadline=None)
@given(coarse_markets(), st.sampled_from(GRID), st.sampled_from(GRID),
       st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([0.0, 0.3]))
def test_acceptable_edges_match_dense(case, cap_l, cap_r, sigma_l, sigma_r):
    market, _ = case
    got = ml.acceptable_edges(market, cap_l, cap_r, sigma_l, sigma_r).mask
    assert np.array_equal(got, dense_acceptable_edges(market, cap_l, cap_r, sigma_l, sigma_r))


@settings(max_examples=60, deadline=None)
@given(coarse_markets(), st.sampled_from([1.0, 1.5, 4.0]), st.sampled_from([1.0, 2.0]))
def test_loss_threshold_and_truncated_edges_match_dense(case, t_left, t_right):
    market, rng = case
    # per-agent thresholds on the grid, some NaN (no benchmark: keep every edge)
    thr = {side: np.where(rng.random(market.n(side)) < 0.2, np.nan,
                          rng.choice(GRID, market.n(side))) for side in (LEFT, RIGHT)}
    got = ml.loss_threshold_edges(market, thr[LEFT], thr[RIGHT]).mask
    assert np.array_equal(got, dense_loss_threshold_edges(market, thr[LEFT], thr[RIGHT]))

    params = ml.loss_params_from_bound(0.1, market.model)
    shift = 4.0 * params.rating_margin
    want = dense_loss_threshold_edges(market,
                                      _truncation_thresholds(market, LEFT, shift * t_left**2),
                                      _truncation_thresholds(market, RIGHT, shift * t_right**2))
    assert np.array_equal(ml.truncated_edges(market, params, t_left, t_right).mask, want)


@settings(max_examples=40, deadline=None)
@given(coarse_markets(), st.sampled_from([None, 0.2, 0.7]))
def test_viable_edges_match_dense(case, density):
    market, rng = case
    edges = None if density is None else random_mask(rng, market, density)
    assert np.array_equal(ml.viable_edges(market, edges).mask, dense_viable_edges(market, edges))


@settings(max_examples=60, deadline=None)
@given(coarse_markets(), st.sampled_from(GRID), st.sampled_from(GRID), st.sampled_from(GRID))
def test_interview_edges_match_dense(case, window, cutoff_l, cutoff_r):
    market, _ = case
    params = ml.InterviewParams(window, 0.5, score_cutoff_left=cutoff_l, score_cutoff_right=cutoff_r)
    assert np.array_equal(ml.interview_edges(market, params).mask,
                          dense_interview_edges(market, params))


@settings(max_examples=60, deadline=None)
@given(coarse_markets(), st.sampled_from([LEFT, RIGHT]), st.integers(0, 2 * B),
       st.sampled_from([None, -0.5, 0.0, 0.5, 1.0]), st.booleans())
def test_double_cut_edges_match_dense(case, side, target, floor, with_target):
    market, _ = case
    target = target % market.n(RIGHT if side == LEFT else LEFT) if with_target else None
    if target is None and floor is None:
        floor = 0.5
    cut = CutSpec(target=target, rating_floor=floor)
    assert np.array_equal(double_cut_edges(market, side, cut).mask,
                          dense_double_cut_edges(market, side, cut))


@settings(max_examples=60, deadline=None)
@given(coarse_markets(), st.sampled_from([None, 0.3, 0.8]), st.booleans())
def test_verify_stability_matches_dense(case, density, stable):
    market, rng = case
    edges = None if density is None else random_mask(rng, market, density)
    matching = ml.run_da(market, LEFT, edges) if stable else random_matching(rng, market)
    got = ml.verify_stability(market, edges, matching)
    want = dense_verify_stability(market, edges, matching)
    assert got == want  # same pairs, same order
    assert all(type(i) is int and type(j) is int for i, j in got)
    if stable:
        assert got == []


@settings(max_examples=60, deadline=None)
@given(coarse_markets(), st.sampled_from([0.0, 0.1, 0.5, 0.95]))
def test_candidate_lists_match_per_row_sort(case, density):
    market, rng = case
    edges = random_mask(rng, market, density)
    for side in (LEFT, RIGHT):
        indptr, indices = _candidate_lists(market, side, edges)
        want_ptr, want_idx = per_row_candidate_lists(market, side, edges)
        assert np.array_equal(indptr, want_ptr)
        assert np.array_equal(indices, want_idx)


def test_candidate_lists_order_nan_utilities_last():
    rng = np.random.default_rng(5)
    n = 2 * B + 1
    scores = np.round(rng.random((n, n)) * 3) / 3
    scores[::5, ::3] = np.nan
    scores[7] = np.nan
    market = ml.Market(n_left=n, n_right=n, cap_left=1, cap_right=1,
                       ratings_left=np.full(n, 0.5), ratings_right=rng.random(n),
                       scores_left=scores, scores_right=scores.T.copy(),
                       model=ml.linear_model(0.5), seed=None)
    edges = EdgeSet(rng.random((n, n)) < 0.6)
    for side in (LEFT, RIGHT):
        got = _candidate_lists(market, side, edges)
        want = per_row_candidate_lists(market, side, edges)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=30, deadline=None)
@given(coarse_markets(balanced=True, one_to_one=True),
       st.sampled_from([1.0, 3.0, 10.0]), st.sampled_from([None, 0.1, 0.3]))
def test_selected_edges_match_dense(case, degree, halfwidth):
    market, _ = case
    params = ml.SelectedSetParams(degree, halfwidth)
    if params.halfwidth(market.n_left) > 0.5:
        return
    try:
        want = dense_selected_edges(market, params)
    except ValueError:
        with pytest.raises(ValueError, match="survival probability above 1"):
            ml.selected_edges(market, params)
        return
    assert np.array_equal(ml.selected_edges(market, params).mask, want)


def curved(rating, score):
    return np.sqrt(rating + 0.1) * (0.5 + score) + score**3


@pytest.mark.parametrize("n_left,n_right", [(1, 3), (B - 1, B), (B, 2 * B + 1), (2 * B + 1, 5)])
def test_utility_matrix_matches_whole_array(n_left, n_right):
    models = [ml.linear_model(0.8), ml.linear_model(0.3),
              ml.custom_model("curved-blocks", curved, lambda r, s: r * r + s,
                              ratio_low=0.1, slope_cap=2.0)]
    for model in models:
        m = ml.generate_market(n_left, n_right, model=model, seed=9)
        for side in (LEFT, RIGHT):
            got = m.utility_matrix(side)
            assert got.flags.c_contiguous and got.dtype == np.float64
            assert np.array_equal(got, dense_utility_matrix(m, side))
