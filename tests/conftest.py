import heapq
import random

import numpy as np
import pytest

import matchlab as ml
from matchlab.engine import worst_partner
from matchlab.market import LEFT, RIGHT, other_side


def make_manual_market(scores_left, scores_right, ratings_left=None, ratings_right=None,
                       weight=1e-9, cap_left=1, cap_right=1):
    """Market with hand-set score matrices; tiny weight makes preferences
    follow the scores, so arbitrary preference profiles can be embedded."""
    scores_left = np.asarray(scores_left, dtype=float)
    scores_right = np.asarray(scores_right, dtype=float)
    nl, nr = scores_left.shape
    if ratings_left is None:
        ratings_left = np.full(nl, 0.5)
    if ratings_right is None:
        ratings_right = np.full(nr, 0.5)
    return ml.Market(
        n_left=nl,
        n_right=nr,
        cap_left=cap_left,
        cap_right=cap_right,
        ratings_left=np.asarray(ratings_left, dtype=float),
        ratings_right=np.asarray(ratings_right, dtype=float),
        scores_left=scores_left,
        scores_right=scores_right,
        model=ml.linear_model(weight),
        seed=None,
    )


def reference_da(market, side, edges=None, order_seed=None):
    """One-proposal-at-a-time deferred acceptance with receiver heaps: the
    oracle `run_da` must reproduce, matching and `proposal_counts` alike.

    Lists come from a per-row stable argsort of the utilities, independent
    of the market's cached preference order.  ``order_seed`` randomizes the
    order in which unmatched proposers are processed.
    """
    prop = side
    recv = other_side(prop)
    n_p, n_r = market.n(prop), market.n(recv)
    cap_p, cap_r = market.cap(prop), market.cap(recv)

    u = market.utility_matrix(prop)
    mask = np.ones((n_p, n_r), dtype=bool) if edges is None else (
        edges.mask if prop == LEFT else edges.mask.T)
    cand = []
    for i in range(n_p):
        cols = np.flatnonzero(mask[i])
        if cols.size:
            cols = cols[np.argsort(-u[i, cols], kind="stable")]
        cand.append(cols)
    u_recv = market.utility_matrix(recv)  # u_recv[j, i]: receiver j's utility for proposer i

    held = [[] for _ in range(n_r)]  # min-heaps of (utility, -proposer)
    n_match = [0] * n_p
    ptr = [0] * n_p
    counts = np.zeros(n_p, dtype=np.int64)

    pool = list(range(n_p - 1, -1, -1))
    rng = None
    if order_seed is not None:
        rng = random.Random(order_seed)
        rng.shuffle(pool)
    pending = [True] * n_p

    while pool:
        if rng is not None and len(pool) > 1:
            k = rng.randrange(len(pool))
            pool[k], pool[-1] = pool[-1], pool[k]
        i = pool.pop()
        pending[i] = False
        ci = cand[i]
        end = len(ci)
        while n_match[i] < cap_p and ptr[i] < end:
            j = int(ci[ptr[i]])
            ptr[i] += 1
            counts[i] += 1
            key = (float(u_recv[j, i]), -i)
            hj = held[j]
            if len(hj) < cap_r:
                heapq.heappush(hj, key)
                n_match[i] += 1
            elif key > hj[0]:
                bumped = -heapq.heapreplace(hj, key)[1]
                n_match[bumped] -= 1
                n_match[i] += 1
                if not pending[bumped]:
                    pending[bumped] = True
                    pool.append(bumped)

    sets_recv = [[-k[1] for k in hj] for hj in held]
    sets_prop = [[] for _ in range(n_p)]
    for j, proposers in enumerate(sets_recv):
        for i in proposers:
            sets_prop[i].append(j)

    left = sets_prop if prop == LEFT else sets_recv
    return ml.Matching.from_left_sets(left, market.n_right, prop, counts)


# ---------------------------------------------------------------------------
# Dense forms of the two-sided builders, written as whole-matrix formulas with
# a transposed right-side test: the oracles the row-blocked kernels must
# reproduce bit for bit.


def dense_utility_matrix(market, side):
    u = market.model.utility(side, market.ratings(other_side(side))[None, :], market.scores(side))
    return np.ascontiguousarray(u, dtype=float)


def dense_threshold_keep(market, side, thresholds):
    bench = ml.benchmark_vector(market, side)
    thr = np.broadcast_to(np.asarray(thresholds, dtype=float), bench.shape)
    floor = (bench - thr)[:, None]
    keep = market.utility_matrix(side) >= floor
    keep |= np.isnan(floor)
    return keep


def dense_loss_threshold_edges(market, thresholds_left, thresholds_right):
    keep_l = dense_threshold_keep(market, LEFT, thresholds_left)
    keep_r = dense_threshold_keep(market, RIGHT, thresholds_right)
    return keep_l & keep_r.T


def dense_acceptable_edges(market, loss_cap_left, loss_cap_right, sigma_left=0.0, sigma_right=0.0):
    keep_l = dense_threshold_keep(market, LEFT, loss_cap_left)
    keep_l |= (market.ratings_left < market.rating_range_left[0] + sigma_left)[:, None]
    keep_r = dense_threshold_keep(market, RIGHT, loss_cap_right)
    keep_r |= (market.ratings_right < market.rating_range_right[0] + sigma_right)[:, None]
    return keep_l & keep_r.T


def _dense_beats_worst(market, side, matching, weak):
    wu, wj = worst_partner(market, side, matching, spare_is_worst=True)
    u = market.utility_matrix(side)
    idx = np.arange(market.n(other_side(side)))[None, :]
    by_index = idx <= wj[:, None] if weak else idx < wj[:, None]
    return (u > wu[:, None]) | ((u == wu[:, None]) & by_index)


def dense_viable_edges(market, edges=None):
    left_opt, right_opt = ml.extreme_matchings(market, edges)
    keep_l = _dense_beats_worst(market, LEFT, right_opt, weak=True)
    keep_r = _dense_beats_worst(market, RIGHT, left_opt, weak=True)
    base = np.ones((market.n_left, market.n_right), dtype=bool) if edges is None else edges.mask
    return base & keep_l & keep_r.T


def dense_verify_stability(market, edges, matching):
    mask = np.ones((market.n_left, market.n_right), dtype=bool) if edges is None else edges.mask
    block = (mask & _dense_beats_worst(market, LEFT, matching, weak=False)
             & _dense_beats_worst(market, RIGHT, matching, weak=False).T)
    block[matching.pair_array[:, 0], matching.pair_array[:, 1]] = False
    return list(map(tuple, np.argwhere(block).tolist()))


def dense_interview_edges(market, params):
    gap = np.abs(market.ratings_left[:, None] - market.ratings_right[None, :])
    mask = gap <= params.rating_window
    mask &= market.scores_left > params.cutoff_left
    mask &= (market.scores_right > params.cutoff_right).T
    return mask


def dense_double_cut_edges(market, side, cut):
    u = market.utility_matrix(side)
    n_p, n_r = u.shape
    keep = np.ones((n_p, n_r), dtype=bool)
    floor = None if cut.rating_floor is None else max(0.0, cut.rating_floor)
    if floor is not None and floor > 0.0:
        keep &= u >= float(market.model.utility(side, floor, 1.0))
    if cut.target is not None:
        t = cut.target
        ut = u[:, t][:, None]
        keep &= (u > ut) | ((u == ut) & (np.arange(n_r)[None, :] <= t))
    return keep.T if side == RIGHT else keep


def dense_selected_edges(market, params):
    n = market.n_left
    sigma = params.halfwidth(n)
    p = ml.selected_survival(market.ratings_left[:, None], market.ratings_right[None, :],
                             params.expected_degree, sigma, n)
    if p.max() > 1.0:
        raise ValueError("survival probability above 1")
    threshold = 1.0 - np.sqrt(p)
    return (p > 0.0) & (market.scores_left >= threshold) & (market.scores_right.T >= threshold)


def per_row_candidate_lists(market, side, edges):
    """Proposer lists in CSR form from one stable argsort per row."""
    u = market.utility_matrix(side)
    mask = edges.mask if side == LEFT else edges.mask.T
    rows = []
    for i in range(market.n(side)):
        cols = np.flatnonzero(mask[i])
        rows.append(cols[np.argsort(-u[i, cols], kind="stable")])
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([r.size for r in rows], out=indptr[1:])
    return indptr, np.concatenate(rows)


def cyclic_three_market():
    """Classic 3x3 Latin-square profile with three stable matchings."""
    pref_l = np.array([[3, 2, 1], [1, 3, 2], [2, 1, 3]], dtype=float) / 3
    pref_r = np.array([[1, 3, 2], [2, 1, 3], [3, 2, 1]], dtype=float) / 3
    return make_manual_market(pref_l, pref_r)


def exhaustive_max_matching(mask) -> int:
    """Branch-and-bound exhaustive maximum matching; oracle for small graphs."""
    mask = np.asarray(mask, dtype=bool)
    nl = mask.shape[0]
    best = 0

    def rec(i, used, size):
        nonlocal best
        best = max(best, size)
        if i == nl or size + (nl - i) <= best:
            return
        rec(i + 1, used, size)
        for j in np.flatnonzero(mask[i]):
            bit = 1 << int(j)
            if not used & bit:
                rec(i + 1, used | bit, size + 1)

    rec(0, 0, 0)
    return best


def proposer_weakly_dominates(market, side, matching, other):
    """Every `side` agent weakly prefers their `matching` partner set to the
    one in `other` (worst-match comparison; unmatched counts as -inf)."""
    a = ml.achieved_utilities(market, matching, side, unmatched=-np.inf)
    b = ml.achieved_utilities(market, other, side, unmatched=-np.inf)
    return bool(np.all(a >= b))


@pytest.fixture(scope="session")
def small_market():
    return ml.generate_market(30, 30, model=ml.linear_model(0.8), seed=314)


@pytest.fixture(scope="session")
def mid_market():
    return ml.generate_market(200, 200, model=ml.linear_model(0.5), seed=2718)
