"""The row-blocked edge-set kernels against their dense whole-matrix forms.

Every builder that combines a left-side test with a right-side test fills
its mask one block of left rows at a time.  These tests compare each one,
bit for bit, with the dense formula it replaced (kept in conftest.py), on
sizes below, at and across the block size, on unbalanced sides, and on
coarse score grids where exact ties are common.  The min-L scan's entry
levels are compared with `acceptable_edges` at every level of the grid.
The per-edge tests on restricted sets run at their default chunk size and
at a tiny one, so chunk boundaries fall inside most sets.
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchlab as ml
from matchlab import engine
from matchlab.analysis import _truncation_thresholds, selected_cone_halfwidth
from matchlab.engine import CutSpec, EdgeSet, _candidate_lists, double_cut_edges
from matchlab.experiments import ExperimentConfig, _loss_grid
from matchlab.market import _BLOCK_ROWS, LEFT, RIGHT

from conftest import (
    HeldScoresMarket,
    dense_acceptable_edges,
    dense_double_cut_edges,
    dense_interview_edges,
    dense_loss_threshold_edges,
    dense_selected_edges,
    dense_utility_matrix,
    dense_verify_stability,
    dense_viable_edges,
    mask,
    per_row_candidate_lists,
)

B = _BLOCK_ROWS
SIZES = [1, 3, B - 1, B, B + 1, 2 * B + 1]
GRID = [0.0, 0.1, 0.25, 0.5, 1.0]
# edges per chunk of the per-edge tests on restricted sets: the default, and
# a size small enough that most restricted sets here span several chunks
CHUNKS = st.sampled_from([engine._EDGE_CHUNK, 5])


@contextmanager
def edge_chunk(size):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_EDGE_CHUNK", size)
        yield


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

    market = HeldScoresMarket(
        n_left=n_left, n_right=n_right, cap_left=caps[0], cap_right=caps[1],
        ratings_left=grid(n_left), ratings_right=grid(n_right),
        scores_left=grid(n_left, n_right), scores_right=grid(n_right, n_left),
        model=ml.linear_model(0.5),
    )
    return market, rng


def random_mask(rng, market, density):
    """Edge mask with the given density, plus one empty row and column."""
    allowed = rng.random((market.n_left, market.n_right)) < density
    allowed[rng.integers(market.n_left)] = False
    allowed[:, rng.integers(market.n_right)] = False
    return EdgeSet(np.flatnonzero(allowed), market.n_left, market.n_right)


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
    return ml.Matching([(i, j) for i, ms in enumerate(sets) for j in ms],
                       market.n_left, market.n_right)


@settings(max_examples=60, deadline=None)
@given(coarse_markets(), st.sampled_from(GRID), st.sampled_from(GRID),
       st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([0.0, 0.3]))
def test_acceptable_edges_match_dense(case, cap_l, cap_r, sigma_l, sigma_r):
    market, _ = case
    got = mask(ml.acceptable_edges(market, cap_l, cap_r, sigma_l, sigma_r))
    assert np.array_equal(got, dense_acceptable_edges(market, cap_l, cap_r, sigma_l, sigma_r))


@settings(max_examples=100, deadline=None)
@given(coarse_markets(), st.sampled_from([0.0, 0.01, 0.05, 0.125]),
       st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.125]), st.integers(1, 12),
       st.sampled_from(["theory", "fixed"]), st.sampled_from([0.0, 0.25, 0.5]),
       st.sampled_from(["half", "decimal"]), st.booleans(), CHUNKS)
def test_acceptable_entry_levels_reproduce_every_level(case, start, step, count, rule, sigma,
                                                       values, within_top, chunk):
    market, rng = case
    nl, nr = market.n_left, market.n_right
    if values == "decimal":
        # tenths at rating weight 0.8: losses and caps round inexactly
        def tenths(*shape):
            return rng.integers(0, 11, shape) / 10

        market = replace(market, ratings_left=tenths(nl), ratings_right=tenths(nr),
                         scores_left=tenths(nl, nr), scores_right=tenths(nr, nl),
                         model=ml.linear_model(0.8))
    caps = _loss_grid(ExperimentConfig("min-L", grid_start=start,
                                       grid_stop=start + step * (count - 1), grid_step=step))
    if rule == "theory":
        sig_l = sig_r = 3.0 * caps / (4.0 * market.model.mu)
    else:
        sig_l, sig_r = np.full(caps.shape, sigma), np.full(caps.shape, sigma / 2)
    masks = [mask(ml.acceptable_edges(market, float(c), float(c), sl, sr))
             for c, sl, sr in zip(caps, sig_l, sig_r)]
    # the levels of the top set's edges (as the scan asks), or of every edge
    edges = EdgeSet(np.flatnonzero(masks[-1]), nl, nr) if within_top else EdgeSet.full(nl, nr)
    with edge_chunk(chunk):
        flat, level = ml.acceptable_entry_levels(market, caps, sig_l, sig_r, edges)
    assert np.array_equal(flat, np.flatnonzero(mask(edges)))
    levels = np.full(market.n_left * market.n_right, caps.size)
    levels[flat] = level
    levels = levels.reshape(market.n_left, market.n_right)
    for k, want in enumerate(masks):
        assert np.array_equal(levels <= k, want), f"level {k} of {caps.size}"


@settings(max_examples=60, deadline=None)
@given(coarse_markets(), st.sampled_from([1.0, 1.5, 4.0]), st.sampled_from([1.0, 2.0]))
def test_loss_threshold_and_truncated_edges_match_dense(case, t_left, t_right):
    market, rng = case
    # per-agent thresholds on the grid, some NaN (no benchmark: keep every edge)
    thr = {side: np.where(rng.random(market.n(side)) < 0.2, np.nan,
                          rng.choice(GRID, market.n(side))) for side in (LEFT, RIGHT)}
    got = mask(ml.loss_threshold_edges(market, thr[LEFT], thr[RIGHT]))
    assert np.array_equal(got, dense_loss_threshold_edges(market, thr[LEFT], thr[RIGHT]))

    params = ml.loss_params_from_bound(0.1, market.model)
    shift = 4.0 * params.rating_margin
    want = dense_loss_threshold_edges(market,
                                      _truncation_thresholds(market, LEFT, shift * t_left**2),
                                      _truncation_thresholds(market, RIGHT, shift * t_right**2))
    assert np.array_equal(mask(ml.truncated_edges(market, params, t_left, t_right)), want)


@settings(max_examples=40, deadline=None)
@given(coarse_markets(), st.sampled_from([None, 0.2, 0.7]), CHUNKS)
def test_viable_edges_match_dense(case, density, chunk):
    market, rng = case
    edges = None if density is None else random_mask(rng, market, density)
    with edge_chunk(chunk):
        got = ml.viable_edges(market, edges)
    assert np.array_equal(mask(got), dense_viable_edges(market, edges))


@settings(max_examples=60, deadline=None)
@given(coarse_markets(), st.sampled_from(GRID), st.sampled_from(GRID))
def test_interview_edges_match_dense(case, window, cutoff):
    market, _ = case
    params = ml.InterviewParams(window, cutoff)
    assert np.array_equal(mask(ml.interview_edges(market, params)),
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
    assert np.array_equal(mask(double_cut_edges(market, side, cut)),
                          dense_double_cut_edges(market, side, cut))


@settings(max_examples=60, deadline=None)
@given(coarse_markets(), st.sampled_from([None, 0.3, 0.8]), st.booleans(), CHUNKS)
def test_verify_stability_matches_dense(case, density, stable, chunk):
    market, rng = case
    edges = None if density is None else random_mask(rng, market, density)
    matching = ml.run_da(market, LEFT, edges) if stable else random_matching(rng, market)
    with edge_chunk(chunk):
        got = ml.verify_stability(market, edges, matching)
    want = dense_verify_stability(market, edges, matching)
    assert got == want  # same pairs, same order
    assert all(type(i) is int and type(j) is int for i, j in got)
    if stable:
        assert got == []


def audit_markets():
    """The complete-set audit's markets, each spanning several row blocks."""
    rng = np.random.default_rng(17)

    def held(model, levels, caps=(1, 1), shape=(2 * B + 5, 2 * B - 3)):
        nl, nr = shape
        grid = lambda *s: rng.integers(0, levels, s) / (levels - 1)
        return HeldScoresMarket(n_left=nl, n_right=nr, cap_left=caps[0], cap_right=caps[1],
                                ratings_left=grid(nl), ratings_right=grid(nr),
                                scores_left=grid(nl, nr), scores_right=grid(nr, nl), model=model)

    return [
        pytest.param(ml.generate_market(2 * B + 7, 2 * B + 7, model=ml.linear_model(0.8), seed=17),
                     id="linear"),
        # 3 * (B + 10) right slots for 2 * B + 9 left agents: DA leaves free slots
        pytest.param(ml.generate_market(2 * B + 9, B + 10, 1, 3, model=ml.linear_model(0.6),
                                        seed=18), id="capacitated"),
        pytest.param(held(ml.linear_model(0.5), 3), id="tied"),
        pytest.param(held(ml.linear_model(0.5), 3, caps=(2, 3)), id="tied-capacitated"),
    ]


def audit_matchings(market, rng):
    """(id, matching): DA from both sides, a shuffled one-to-one matching or
    a random capacitated one, and the empty matching."""
    out = [(side, ml.run_da(market, side)) for side in (LEFT, RIGHT)]
    if market.cap_left == market.cap_right == 1:
        k = min(market.n_left, market.n_right)
        pairs = np.column_stack((rng.permutation(market.n_left)[:k],
                                 rng.permutation(market.n_right)[:k]))
        out.append(("shuffled", ml.Matching(pairs, market.n_left, market.n_right)))
    else:
        out.append(("random", random_matching(rng, market)))
    return out + [("empty", ml.Matching([], market.n_left, market.n_right))]


@contextmanager
def restricted_path():
    """Send a complete `EdgeSet` down the restricted, edge-by-edge path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EdgeSet, "is_full", lambda self: False)
        yield


@pytest.mark.parametrize("market", audit_markets())
def test_complete_set_audit_matches_dense_and_restricted(market):
    rng = np.random.default_rng(market.n_left)
    full = EdgeSet.full(market.n_left, market.n_right)
    matchings = audit_matchings(market, rng)
    for kind, matching in matchings:
        want = dense_verify_stability(market, None, matching)
        assert ml.verify_stability(market, None, matching) == want, kind
        assert ml.verify_stability(market, full, matching) == want, kind
        with restricted_path():
            assert ml.verify_stability(market, full, matching) == want, kind
        if kind in (LEFT, RIGHT):
            assert want == []
        if kind == "empty":
            # every edge blocks
            assert want == [(i, j) for i in range(market.n_left) for j in range(market.n_right)]
    # the weak two-step test, on pairs of these matchings, against its
    # restricted path: the form `viable_edges` uses
    for (_, left), (_, right) in zip(matchings, matchings[1:] + matchings[:1]):
        got = engine._preferred_edges(market, None, left, right, weak=True)
        with restricted_path():
            assert got == engine._preferred_edges(market, full, left, right, weak=True)
    want = ml.viable_edges(market)
    assert np.array_equal(mask(want), dense_viable_edges(market))
    with restricted_path():
        assert ml.viable_edges(market, full) == want


@pytest.mark.parametrize("market", audit_markets())
def test_best_utility_is_the_column_maxima(market):
    for side in (LEFT, RIGHT):
        got = market.best_utility(side)
        want = market.utility_matrix(side).max(axis=0)
        assert got.shape == (market.n(ml.other_side(side)),)
        # the sign of a zero may differ; == (and DA's <=) treats the two alike
        assert np.array_equal(got, want)
        assert got is market.best_utility(side)


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


class HeldUtilityMarket(HeldScoresMarket):
    """A market whose utilities are its held scores, bit for bit."""

    def _utility_matrix(self, side):
        u = self.scores(side)
        return u, np.maximum.reduce(u, axis=0)


@st.composite
def colliding_utility_markets(draw):
    """Held-utility market whose utilities are a few base values with up to
    `spread` low bits of their float64 pattern changed: exact ties (-0.0
    among them) and values that differ only in the low bits a restricted
    list's sort key drops.  Proposer counts fall on both sides of 64 and
    128 on each side, and one side may hold a single agent."""
    n_left, n_right = (draw(st.sampled_from([1, 2, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1]))
                       for _ in range(2))
    spread = draw(st.sampled_from([2, 8, 16]))
    bases = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 0.3, 0.7, 1.0, -1.5]),
                                   min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def utilities(*shape):
        bits = rng.choice(bases, shape).view(np.uint64)
        bits += rng.integers(0, 2**spread, shape, dtype=np.uint64) * (rng.random(shape) < 0.7)
        return bits.view(np.float64)

    market = HeldUtilityMarket(
        n_left=n_left, n_right=n_right, cap_left=1, cap_right=1,
        ratings_left=np.zeros(n_left), ratings_right=np.zeros(n_right),
        scores_left=utilities(n_left, n_right), scores_right=utilities(n_right, n_left),
        model=ml.linear_model(0.5),
    )
    return market, rng


@settings(max_examples=60, deadline=None)
@given(colliding_utility_markets(), st.sampled_from([0.1, 0.5, 1.0]))
def test_candidate_lists_redo_colliding_keys(case, density):
    market, rng = case
    edges = random_mask(rng, market, density)  # with one empty row on each side
    for side in (LEFT, RIGHT):
        indptr, indices = _candidate_lists(market, side, edges)
        want_ptr, want_idx = per_row_candidate_lists(market, side, edges)
        assert np.array_equal(indptr, want_ptr)
        assert np.array_equal(indices, want_idx)


@settings(max_examples=30, deadline=None)
@given(coarse_markets(balanced=True, one_to_one=True), st.sampled_from([1.0, 3.0, 10.0]))
def test_selected_edges_match_dense(case, degree):
    market, _ = case
    params = ml.SelectedSetParams(degree)
    if selected_cone_halfwidth(degree, market.n_left) > 0.5:
        return
    try:
        want = dense_selected_edges(market, params)
    except ValueError:
        with pytest.raises(ValueError, match="survival probability above 1"):
            ml.selected_edges(market, params)
        return
    assert np.array_equal(mask(ml.selected_edges(market, params)), want)


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


@pytest.mark.parametrize("model", [
    ml.linear_model(0.8),
    ml.custom_model("curved-bound", curved, lambda r, s: r * r + s, ratio_low=0.1, slope_cap=2.0),
], ids=["linear", "custom"])
def test_best_utility_filled_with_the_matrix_and_reused(model):
    # capacity 2: every run takes DA's rounds, none derives its matching
    # from the other side's by rotations
    m = ml.generate_market(2 * B + 5, 3 * B + 1, cap_left=2, model=model, seed=23)
    fills, bounds = [], []
    fill, best = m._utility_matrix, m.best_utility
    m._utility_matrix = lambda side: fills.append(side) or fill(side)
    m.best_utility = lambda side: bounds.append(best(side)) or bounds[-1]
    for _ in range(2):
        for side in (LEFT, RIGHT):
            ml.run_da(m, side)
    assert sorted(fills) == [LEFT, RIGHT]  # one fill per side, bound included
    assert len(bounds) == 4
    assert bounds[0] is bounds[2] and bounds[1] is bounds[3]
    for side in (LEFT, RIGHT):
        assert np.array_equal(m.best_utility(side), m.utility_matrix(side).max(axis=0))
