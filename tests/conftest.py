import heapq
import itertools
import json
import random
from dataclasses import KW_ONLY, dataclass

import numpy as np
import pytest

import matchlab as ml
from matchlab.analysis import selected_cone_halfwidth
from matchlab.engine import _ranks_above, worst_partner
from matchlab.market import LEFT, RIGHT, _check_finite, other_side, stream_rng


@dataclass(eq=False)
class HeldScoresMarket(ml.Market):
    """A market that holds given score matrices instead of drawing them from
    its seed: ties and hand-set preference profiles, which no seed draws on
    purpose.  Its utilities pass the same finiteness check as a drawn
    market's."""

    seed: int = 0
    _: KW_ONLY
    scores_left: np.ndarray
    scores_right: np.ndarray

    def scores(self, side):
        return self.scores_left if side == LEFT else self.scores_right

    def _utility_matrix(self, side):
        u = self.model.utility(side, self.ratings(other_side(side))[None, :], self.scores(side))
        _check_finite(u, self.model, side)
        return u, np.maximum.reduce(u, axis=0)


def mask(edges):
    """Dense (n_left, n_right) boolean mask of an edge set."""
    out = np.zeros(edges.n_left * edges.n_right, dtype=bool)
    out[edges.flat] = True
    return out.reshape(edges.n_left, edges.n_right)


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
    return HeldScoresMarket(
        n_left=nl,
        n_right=nr,
        cap_left=cap_left,
        cap_right=cap_right,
        ratings_left=np.asarray(ratings_left, dtype=float),
        ratings_right=np.asarray(ratings_right, dtype=float),
        scores_left=scores_left,
        scores_right=scores_right,
        model=ml.linear_model(weight),
    )


def rewrite_market_file(src, dst, arrays=(), **meta):
    """Copy the market file `src` to `dst` with the meta keys `meta` set and
    the named `arrays` added or replaced: an old-format or a crafted file."""
    with np.load(src) as data:
        fields = dict(data)
    old_meta = json.loads(bytes(fields["meta"]).decode("utf-8"))
    fields["meta"] = np.frombuffer(json.dumps({**old_meta, **meta}, sort_keys=True).encode("utf-8"),
                                   dtype=np.uint8)
    with open(dst, "wb") as fh:
        np.savez(fh, **{**fields, **dict(arrays)})


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
    allowed = np.ones((n_p, n_r), dtype=bool) if edges is None else (
        mask(edges) if prop == LEFT else mask(edges).T)
    cand = []
    for i in range(n_p):
        cols = np.flatnonzero(allowed[i])
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
    return ml.Matching([(i, j) for i, js in enumerate(left) for j in js],
                       market.n_left, market.n_right, prop, counts)


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
    """`_ranks_above` on the whole (n_side, n_other) matrix: each partner
    against the agent's worst held one (a free slot ranks below every edge)."""
    wu, wj = worst_partner(market, side, matching, spare_is_worst=True)
    bound = wj + 1 if weak else wj
    idx = np.arange(market.n(other_side(side)))[None, :]
    return _ranks_above(market.utility_matrix(side), idx, wu[:, None], bound[:, None])


def dense_viable_edges(market, edges=None):
    left_opt, right_opt = ml.extreme_matchings(market, edges)
    keep_l = _dense_beats_worst(market, LEFT, right_opt, weak=True)
    keep_r = _dense_beats_worst(market, RIGHT, left_opt, weak=True)
    base = np.ones((market.n_left, market.n_right), dtype=bool) if edges is None else mask(edges)
    return base & keep_l & keep_r.T


def dense_verify_stability(market, edges, matching):
    allowed = np.ones((market.n_left, market.n_right), dtype=bool) if edges is None else mask(edges)
    block = (allowed & _dense_beats_worst(market, LEFT, matching, weak=False)
             & _dense_beats_worst(market, RIGHT, matching, weak=False).T)
    block.flat[matching.edges.flat] = False
    return list(map(tuple, np.argwhere(block).tolist()))


def dense_interview_edges(market, params):
    gap = np.abs(market.ratings_left[:, None] - market.ratings_right[None, :])
    keep = gap <= params.rating_window
    keep &= market.scores(LEFT) > params.score_cutoff
    keep &= (market.scores(RIGHT) > params.score_cutoff).T
    return keep


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
    sigma = selected_cone_halfwidth(params.expected_degree, n)
    p = ml.selected_survival(market.ratings_left[:, None], market.ratings_right[None, :],
                             params.expected_degree, sigma, n)
    if p.max() > 1.0:
        raise ValueError("survival probability above 1")
    threshold = 1.0 - np.sqrt(p)
    return (p > 0.0) & (market.scores(LEFT) >= threshold) & (market.scores(RIGHT).T >= threshold)


def per_row_candidate_lists(market, side, edges):
    """Proposer lists in CSR form from one stable argsort per row."""
    u = market.utility_matrix(side)
    allowed = mask(edges) if side == LEFT else mask(edges).T
    rows = []
    for i in range(market.n(side)):
        cols = np.flatnonzero(allowed[i])
        rows.append(cols[np.argsort(-u[i, cols], kind="stable")])
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([r.size for r in rows], out=indptr[1:])
    return indptr, np.concatenate(rows)


def serial_score_rows(seed, n_left, n_right):
    """Both score matrices drawn one row after another, row i of each from
    its own stream (seed, label, i): the oracle `generate_market` must
    reproduce bit for bit."""
    left = np.array([stream_rng(seed, 2, i).random(n_right) for i in range(n_left)])
    right = np.array([stream_rng(seed, 3, j).random(n_left) for j in range(n_right)])
    return left, right


def cyclic_three_market():
    """Classic 3x3 Latin-square profile with three stable matchings."""
    pref_l = np.array([[3, 2, 1], [1, 3, 2], [2, 1, 3]], dtype=float) / 3
    pref_r = np.array([[1, 3, 2], [2, 1, 3], [3, 2, 1]], dtype=float) / 3
    return make_manual_market(pref_l, pref_r)


def exhaustive_max_matching(allowed) -> int:
    """Branch-and-bound exhaustive maximum matching; oracle for small graphs."""
    allowed = np.asarray(allowed, dtype=bool)
    nl = allowed.shape[0]
    best = 0

    def rec(i, used, size):
        nonlocal best
        best = max(best, size)
        if i == nl or size + (nl - i) <= best:
            return
        rec(i + 1, used, size)
        for j in np.flatnonzero(allowed[i]):
            bit = 1 << int(j)
            if not used & bit:
                rec(i + 1, used | bit, size + 1)

    rec(0, 0, 0)
    return best


def _stable_in_submarket(partner_left, allowed, ul, ur) -> bool:
    """Stability of a partial one-to-one assignment w.r.t. the edge set."""
    n_left, n_right = allowed.shape
    partner_right = [-1] * n_right
    for i, j in enumerate(partner_left):
        if j >= 0:
            partner_right[j] = i
    for i in range(n_left):
        pi = partner_left[i]
        cur_l = (-np.inf, n_right) if pi < 0 else (ul[i, pi], -pi)
        for j in np.flatnonzero(allowed[i]):
            if j == pi:
                continue
            if not ((ul[i, j], -j) > cur_l):
                continue
            qj = partner_right[j]
            cur_r = (-np.inf, n_left) if qj < 0 else (ur[j, qj], -qj)
            if (ur[j, i], -i) > cur_r:
                return False
    return True


def brute_force_stable_set(market, edges=None):
    """All stable matchings of a small one-to-one market, by exhaustion: the
    exact oracle for DA, `viable_edges` and `multi_stable_agents`.

    Requires n_left == n_right <= 8 and unit capacities.  With the complete
    edge set only perfect matchings are enumerated (any stable matching is
    perfect there); restricted edge sets enumerate partial matchings too.
    """
    if market.cap_left != 1 or market.cap_right != 1:
        raise ValueError("brute_force_stable_set needs a one-to-one market")
    n = market.n_left
    if market.n_right != n or n > 8:
        raise ValueError("brute_force_stable_set is limited to n_left == n_right <= 8")
    ul = market.utility_matrix(LEFT)
    ur = market.utility_matrix(RIGHT)
    allowed = np.ones((n, n), dtype=bool) if edges is None else mask(edges)

    stable = []

    def emit(partner_left) -> None:
        stable.append(ml.Matching([(i, j) for i, j in enumerate(partner_left) if j >= 0], n, n))

    if allowed.all():
        # rank tables make the per-permutation blocking test a vector op
        rank_l = np.empty((n, n), dtype=np.int64)
        rank_r = np.empty((n, n), dtype=np.int64)
        rows = np.arange(n)
        rank_l[rows[:, None], np.argsort(-ul, axis=1, kind="stable")] = rows[None, :]
        rank_r[rows[:, None], np.argsort(-ur, axis=1, kind="stable")] = rows[None, :]
        rank_r_by_left = np.ascontiguousarray(rank_r.T)  # [i, j]: j's rank of i
        for perm in itertools.permutations(range(n)):
            p = np.asarray(perm)
            q = np.empty(n, dtype=np.int64)
            q[p] = rows
            better_l = rank_l < rank_l[rows, p][:, None]
            better_r = rank_r_by_left < rank_r[rows, q][None, :]
            if not np.any(better_l & better_r):
                emit(list(perm))
        return stable

    options = [np.flatnonzero(allowed[i]).tolist() for i in range(n)]
    used = [False] * n
    partner = [-1] * n

    def recurse(i: int) -> None:
        if i == n:
            if _stable_in_submarket(partner, allowed, ul, ur):
                emit(list(partner))
            return
        partner[i] = -1
        recurse(i + 1)
        for j in options[i]:
            if not used[j]:
                used[j] = True
                partner[i] = j
                recurse(i + 1)
                partner[i] = -1
                used[j] = False

    recurse(0)
    return stable


def selected_degree_stats(market, params):
    """Granted-interview counts per agent, split out for mid-rating agents.

    Mid-rating means the agent's whole cone fits inside the rating range,
    where the protocol calibrates the expected count to `expected_degree`.
    """
    edges = ml.selected_edges(market, params)
    sigma = selected_cone_halfwidth(params.expected_degree, market.n_left)
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


def monotonicity_audit(model, side=LEFT, grid=50) -> bool:
    """Spot-check strict monotonicity along both axes on a sampled grid."""
    r = s = np.linspace(0.0, 1.0, grid)
    u = np.asarray(model.utility(side, r[:, None], s[None, :]), dtype=float)
    return bool(np.all(np.diff(u, axis=0) > 0) and np.all(np.diff(u, axis=1) > 0))


def proposer_weakly_dominates(market, side, matching, other):
    """Every `side` agent weakly prefers their `matching` partner set to the
    one in `other` (worst-match comparison; unmatched counts as -inf)."""
    a = worst_partner(market, side, matching)[0]
    b = worst_partner(market, side, other)[0]
    return bool(np.all(a >= b))


@pytest.fixture(scope="session")
def small_market():
    return ml.generate_market(30, 30, model=ml.linear_model(0.8), seed=314)


@pytest.fixture(scope="session")
def mid_market():
    return ml.generate_market(200, 200, model=ml.linear_model(0.5), seed=2718)
