import heapq
import random

import numpy as np
import pytest

import matchlab as ml
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
