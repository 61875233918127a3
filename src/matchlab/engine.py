"""Deferred acceptance in all variants, stability audits, and exact oracles."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .market import _BLOCK_ROWS, LEFT, RIGHT, Market, other_side

__all__ = [
    "CutSpec",
    "EdgeSet",
    "Matching",
    "brute_force_stable_set",
    "extreme_matchings",
    "max_bipartite_matching",
    "multi_stable_agents",
    "run_da",
    "run_double_cut_da",
    "verify_stability",
    "worst_partner",
]


class EdgeSet:
    """Explicit subset of the complete bipartite edge set.

    The edges are held as one read-only, sorted int64 array of row-major
    flat indices ``i * n_right + j``: left-major CSR whose row offsets are
    derived on demand.  `csr(side)` is the way to read rows.
    """

    __slots__ = ("flat", "n_left", "n_right")

    def __init__(self, flat, n_left: int, n_right: int) -> None:
        flat = np.asarray(flat, dtype=np.int64).view()
        if flat.ndim != 1:
            raise ValueError("flat edge indices must be 1-dimensional")
        if flat.size and (flat[0] < 0 or flat[-1] >= n_left * n_right
                          or not (flat[1:] > flat[:-1]).all()):
            raise ValueError("flat edge indices must be increasing and inside the market")
        flat.setflags(write=False)
        self.flat = flat
        self.n_left = int(n_left)
        self.n_right = int(n_right)

    @classmethod
    def from_mask(cls, mask) -> "EdgeSet":
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("edge mask must be 2-dimensional (n_left, n_right)")
        return cls(np.flatnonzero(mask), *mask.shape)

    @classmethod
    def full(cls, n_left: int, n_right: int) -> "EdgeSet":
        return cls(np.arange(n_left * n_right), n_left, n_right)

    @classmethod
    def empty(cls, n_left: int, n_right: int) -> "EdgeSet":
        return cls(np.empty(0, dtype=np.int64), n_left, n_right)

    @classmethod
    def from_pairs(cls, pairs, n_left: int, n_right: int) -> "EdgeSet":
        """Edge set of the given (left, right) pairs; duplicates count once."""
        pairs = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64).reshape(-1, 2)
        if (pairs < 0).any() or (pairs >= (n_left, n_right)).any():
            raise ValueError("edge index out of range")
        return cls(np.unique(pairs[:, 0] * n_right + pairs[:, 1]), n_left, n_right)

    @property
    def mask(self) -> np.ndarray:
        """Dense (n_left, n_right) boolean mask, built on every call: for the
        brute-force oracle and the tests."""
        out = np.zeros(self.n_left * self.n_right, dtype=bool)
        out[self.flat] = True
        return out.reshape(self.n_left, self.n_right)

    @property
    def edge_count(self) -> int:
        return self.flat.size

    def contains(self, i: int, j: int) -> bool:
        if not (0 <= i < self.n_left and 0 <= j < self.n_right):
            raise IndexError(f"edge ({i}, {j}) out of range")
        return bool(np.isin(i * self.n_right + j, self.flat))

    def is_full(self) -> bool:
        return self.edge_count == self.n_left * self.n_right

    def degrees(self, side: str) -> np.ndarray:
        if side == LEFT:
            return np.bincount(self.flat // self.n_right, minlength=self.n_left)
        return np.bincount(self.flat % self.n_right, minlength=self.n_right)

    def csr(self, side: str) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the `side` agents' rows, partners ascending."""
        agents, partners = np.divmod(self.flat, self.n_right)
        if side != LEFT:
            order = np.argsort(partners, kind="stable")
            agents, partners = partners[order], agents[order]
        indptr = np.zeros((self.n_left if side == LEFT else self.n_right) + 1, dtype=np.int64)
        np.cumsum(np.bincount(agents, minlength=indptr.size - 1), out=indptr[1:])
        return indptr, partners

    def pairs(self) -> np.ndarray:
        """(m, 2) array of (left, right) indices, lexicographically ordered."""
        return np.column_stack(np.divmod(self.flat, self.n_right))

    def issubset(self, other: "EdgeSet") -> bool:
        _check_shape(other, self)
        return bool(np.isin(self.flat, other.flat, assume_unique=True).all())

    def __and__(self, other: "EdgeSet") -> "EdgeSet":
        _check_shape(other, self)
        return EdgeSet(np.intersect1d(self.flat, other.flat, assume_unique=True),
                       self.n_left, self.n_right)

    def __or__(self, other: "EdgeSet") -> "EdgeSet":
        _check_shape(other, self)
        return EdgeSet(np.union1d(self.flat, other.flat), self.n_left, self.n_right)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, EdgeSet) and self.n_left == other.n_left
                and self.n_right == other.n_right and np.array_equal(self.flat, other.flat))

    def __repr__(self) -> str:
        return f"EdgeSet({self.n_left}x{self.n_right}, {self.edge_count} edges)"


def _check_shape(part: "EdgeSet | Matching | None", other) -> None:
    """Reject an edge set or matching whose shape is not that of `other`, a
    market or an edge set."""
    if part is not None and (part.n_left, part.n_right) != (other.n_left, other.n_right):
        kind = "matching" if isinstance(part, Matching) else "edge set"
        raise ValueError(f"{kind} shape {part.n_left}x{part.n_right} disagrees with "
                         f"{other.n_left}x{other.n_right}")


@dataclass(frozen=True)
class CutSpec:
    """Double-cut parameters: stop at `target` or at the `rating_floor`,
    whichever comes first in each proposer's list.

    The floor removes every edge whose utility falls below the utility of a
    rating-`rating_floor` partner with a perfect private score; negative
    floors clamp to zero.
    """

    target: int | None = None
    rating_floor: float | None = None

    def __post_init__(self) -> None:
        if self.target is None and self.rating_floor is None:
            raise ValueError("a cut needs a target, a rating floor, or both")


@dataclass(eq=False)
class Matching:
    """Capacitated assignment between the two sides, held as its matched
    (left, right) pairs: an (m, 2) int64 array sorted by (left, right), the
    format `EdgeSet.pairs` returns.  Every per-agent view derives from it.

    ``proposal_counts`` records, per proposing-side agent, how many edges it
    offered during the run that produced this matching (all zeros for
    matchings not produced by deferred acceptance).
    """

    pair_array: np.ndarray
    n_left: int
    n_right: int
    proposing_side: str = LEFT
    proposal_counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        pairs = np.asarray(self.pair_array, dtype=np.int64).reshape(-1, 2)
        if (pairs < 0).any() or (pairs >= (self.n_left, self.n_right)).any():
            raise ValueError("matched pair index out of range")
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        pairs.setflags(write=False)
        self.pair_array = pairs
        n_prop = self.n_left if self.proposing_side == LEFT else self.n_right
        self.proposal_counts = (np.zeros(n_prop, dtype=np.int64) if self.proposal_counts is None
                                else np.asarray(self.proposal_counts, dtype=np.int64))

    @classmethod
    def from_left_sets(cls, sets_left, n_right: int, proposing_side: str = LEFT,
                       proposal_counts=None) -> "Matching":
        sets_left = list(sets_left)
        sizes = np.fromiter(map(len, sets_left), dtype=np.int64, count=len(sets_left))
        right = np.fromiter(itertools.chain.from_iterable(sets_left), dtype=np.int64,
                            count=int(sizes.sum()))
        left = np.repeat(np.arange(len(sets_left)), sizes)
        return cls(np.column_stack((left, right)), len(sets_left), n_right,
                   proposing_side, proposal_counts)

    def _columns(self, side: str) -> tuple[np.ndarray, np.ndarray, int]:
        """(agents on `side`, their partners, n on `side`), one entry per pair."""
        if side == LEFT:
            return self.pair_array[:, 0], self.pair_array[:, 1], self.n_left
        return self.pair_array[:, 1], self.pair_array[:, 0], self.n_right

    def matches(self, side: str) -> tuple[tuple[int, ...], ...]:
        """Per-agent sorted partner tuples: a view for row-per-agent output."""
        agents, partners, _ = self._columns(side)
        members = partners[np.lexsort((partners, agents))].tolist()
        ends = np.cumsum(self.match_counts(side)).tolist()
        return tuple(tuple(members[a:b]) for a, b in zip([0] + ends[:-1], ends))

    def pairs(self) -> frozenset:
        return frozenset(zip(self.pair_array[:, 0].tolist(), self.pair_array[:, 1].tolist()))

    def partner(self, side: str) -> np.ndarray:
        """One-to-one convenience: per-agent partner index, -1 if unmatched."""
        agents, partners, n = self._columns(side)
        if (self.match_counts(side) > 1).any():
            raise ValueError("partner() needs a one-to-one matching")
        out = np.full(n, -1, dtype=np.int64)
        out[agents] = partners
        return out

    def matched_mask(self, side: str) -> np.ndarray:
        return self.match_counts(side) > 0

    def match_counts(self, side: str) -> np.ndarray:
        agents, _, n = self._columns(side)
        return np.bincount(agents, minlength=n)

    def unmatched(self, side: str) -> np.ndarray:
        return np.flatnonzero(~self.matched_mask(side))

    def same_pairs(self, other: "Matching") -> bool:
        return np.array_equal(self.pair_array, other.pair_array)


def _mutual_edges(n_left: int, n_right: int, keep_left, keep_right) -> EdgeSet:
    """The edges both sides keep.

    A side's test is called as ``keep(agents, partners)`` with two slices,
    its own agents first, and returns that block of its (n_side, n_other)
    boolean test; None keeps every edge.  The tests run one block of left
    rows at a time: the right-side test covers those left agents only, so
    its transpose stays in cache, and each block contributes the flat
    indices of its kept edges, already in row-major order.
    """
    flats = [np.empty(0, dtype=np.int64)]
    every = slice(None)
    for lo in range(0, n_left, _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        if keep_right is None:
            block = keep_left(rows, every)
        elif keep_left is None:
            block = keep_right(every, rows).T
        else:
            block = keep_left(rows, every)
            block &= keep_right(every, rows).T
        flats.append(np.flatnonzero(block) + lo * n_right)
    return EdgeSet(np.concatenate(flats), n_left, n_right)


def _candidate_lists(market: Market, proposing_side: str, edges: EdgeSet | None):
    """Proposer lists in CSR form: row offsets and one flat receiver array,
    each row in preference order (utility desc, index asc)."""
    n_p, n_r = market.n(proposing_side), market.n(other_side(proposing_side))
    if edges is None or edges.is_full():
        indptr = np.arange(n_p + 1, dtype=np.int64) * n_r
        return indptr, market.preference_order(proposing_side).ravel()
    u = market.utility_matrix(proposing_side)
    indptr, indices = edges.csr(proposing_side)
    # one block of proposers at a time, so the sorts stay block-sized
    for lo in range(0, n_p, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n_p)
        span = slice(indptr[lo], indptr[hi])
        recv = indices[span]
        prop = np.repeat(np.arange(hi - lo), np.diff(indptr[lo:hi + 1]))
        key = -u[lo:hi][prop, recv]
        # Entries arrive receiver-ascending within each proposer.  An unstable
        # sort by key, then a stable (radix, for small row keys) sort by
        # proposer, puts every row in preference order up to tied keys.
        order = np.argsort(key)
        order = order[np.argsort(prop.astype(np.min_scalar_type(hi - lo))[order], kind="stable")]
        rows, keys = prop[order], key[order]
        # rows holding an exact tie or a NaN are sorted again stably
        redo = np.zeros(hi - lo, dtype=bool)
        redo[rows[1:][(rows[1:] == rows[:-1]) & (keys[1:] == keys[:-1])]] = True
        redo[prop[np.isnan(key)]] = True
        if redo.any():
            again = np.flatnonzero(redo[prop])
            order[redo[rows]] = again[np.lexsort((key[again], prop[again]))]
        indices[span] = recv[order]
    return indptr, indices


# Each round scans about this many list entries per agent on the larger side.
_WINDOW_BUDGET = 4


def run_da(market: Market, proposing_side: str = LEFT, edges: EdgeSet | None = None) -> Matching:
    """Proposer-optimal stable matching of the sub-market induced by `edges`.

    Receivers hold their `cap` best proposals so far and bump the worst;
    proposers that exhaust their lists stay unmatched.  The set of proposals
    does not depend on processing order (McVitie & Wilson 1971), so the run
    goes in synchronous rounds: every free proposer scans a window of its
    list, proposes to the first entries whose receiver it beats, and each
    receiver keeps its `cap` best of held plus new proposals.  A receiver's
    threshold (its worst held proposal once full) only rises, so an entry
    skipped in the window is a proposal sequential DA would make and lose;
    it counts in ``proposal_counts``.
    """
    prop = proposing_side
    recv = other_side(prop)
    n_p, n_r = market.n(prop), market.n(recv)
    cap_p, cap_r = market.cap(prop), market.cap(recv)
    _check_shape(edges, market)
    indptr, indices = _candidate_lists(market, prop, edges)
    end = np.diff(indptr)
    u_flat = market.utility_matrix(recv).ravel()  # [j * n_p + i]: receiver j's utility for i

    ptr = np.zeros(n_p, dtype=np.int64)
    n_match = np.zeros(n_p, dtype=np.int64)
    held = np.full((n_r, cap_r), -1, dtype=np.int64)  # best first, -1 pads free slots
    thr_u = np.full(n_r, -np.inf)  # worst held key once full; (-inf, n_p) while room
    thr_i = np.full(n_r, n_p, dtype=np.int64)
    budget = _WINDOW_BUDGET * max(n_p, n_r)

    while True:
        free = np.flatnonzero((n_match < cap_p) & (ptr < end))
        if free.size == 0:
            break
        # window of the next k list entries of each free proposer
        k = max(1, budget // free.size)
        length = np.minimum(end[free] - ptr[free], k)
        first = np.cumsum(length) - length
        seg = np.repeat(np.arange(free.size), length)
        offs = np.arange(seg.size) - first[seg]
        i = free[seg]
        j = indices[indptr[i] + ptr[i] + offs]
        u = u_flat[j * n_p + i]
        beat = (u > thr_u[j]) | ((u == thr_u[j]) & (i < thr_i[j]))
        # the first `open` beating entries of each window are proposals
        rank = np.cumsum(beat)
        rank -= (rank - beat)[first][seg]
        open_ = (cap_p - n_match[free])[seg]
        chosen = beat & (rank <= open_)
        filled = chosen & (rank == open_)
        step = length.copy()
        step[seg[filled]] = offs[filled] + 1
        ptr[free] += step

        # receivers keep their cap_r best of held plus new, keys (u desc, i asc)
        new_i, new_j, new_u = i[chosen], j[chosen], u[chosen]
        touched = np.unique(new_j)
        slots = held[touched]
        has = slots >= 0
        old_i = slots[has]
        old_j = np.repeat(touched, cap_r)[has.ravel()]
        all_i = np.concatenate((old_i, new_i))
        all_j = np.concatenate((old_j, new_j))
        all_u = np.concatenate((u_flat[old_j * n_p + old_i], new_u))
        order = np.lexsort((all_i, -all_u, all_j))
        all_i, all_j, all_u = all_i[order], all_j[order], all_u[order]
        is_new = order >= old_i.size
        pos = np.arange(all_j.size) - np.searchsorted(all_j, all_j)  # rank within receiver
        keep = pos < cap_r
        np.add.at(n_match, all_i[keep & is_new], 1)
        np.add.at(n_match, all_i[~keep & ~is_new], -1)
        held[all_j[keep], pos[keep]] = all_i[keep]
        full = pos == cap_r - 1
        thr_u[all_j[full]] = all_u[full]
        thr_i[all_j[full]] = all_i[full]

    rj, slot = np.nonzero(held >= 0)
    ri = held[rj, slot]
    pairs = np.column_stack((ri, rj) if prop == LEFT else (rj, ri))
    return Matching(pairs, market.n_left, market.n_right, prop, ptr)


def double_cut_edges(market: Market, proposing_side: str, cut: CutSpec) -> EdgeSet:
    """Edge set left after every proposer stops at the cut's target or floor."""
    prop = proposing_side
    u = market.utility_matrix(prop)
    n_r = u.shape[1]
    if cut.target is not None and not 0 <= cut.target < n_r:
        raise IndexError(f"cut target {cut.target} out of range for {n_r} receivers")
    floor = None if cut.rating_floor is None else max(0.0, cut.rating_floor)
    # a floor clamped all the way to zero cuts nothing: no partner rates
    # below the bottom of the range
    floor_u = None
    if floor is not None and floor > 0.0:
        floor_u = float(market.model.utility(prop, floor, 1.0))
    t = cut.target
    idx = np.arange(n_r)

    def keep(rows, cols):
        ub = u[rows, cols]
        out = np.ones(ub.shape, dtype=bool)
        if floor_u is not None:
            out &= ub >= floor_u
        if t is not None:
            ut = u[rows, t][:, None]
            out &= (ub > ut) | ((ub == ut) & (idx[cols] <= t))
        return out

    tests = (keep, None) if prop == LEFT else (None, keep)
    return _mutual_edges(market.n_left, market.n_right, *tests)


def run_double_cut_da(market: Market, proposing_side: str, cut: CutSpec) -> Matching:
    """Deferred acceptance where proposers stop at the target or floor.

    Equivalent to truncating every proposer's list at the first of (its edge
    to the target, inclusive) and (utility below the floor), then running
    plain deferred acceptance.
    """
    return run_da(market, proposing_side, double_cut_edges(market, proposing_side, cut))


def extreme_matchings(market: Market, edges: EdgeSet | None = None) -> tuple[Matching, Matching]:
    """(left-optimal, right-optimal) stable matchings via the two proposing directions."""
    return run_da(market, LEFT, edges), run_da(market, RIGHT, edges)


def multi_stable_agents(market: Market, edges: EdgeSet | None = None) -> tuple[frozenset, frozenset]:
    """Agents whose partner differs between the two extreme stable matchings.

    Returns (left agents, right agents).  One-to-one markets only.
    """
    if market.cap_left != 1 or market.cap_right != 1:
        raise ValueError("multi_stable_agents needs a one-to-one market")
    left_opt, right_opt = extreme_matchings(market, edges)
    left = frozenset(np.flatnonzero(left_opt.partner(LEFT) != right_opt.partner(LEFT)).tolist())
    right = frozenset(np.flatnonzero(left_opt.partner(RIGHT) != right_opt.partner(RIGHT)).tolist())
    return left, right


def worst_partner(market: Market, side: str, matching: Matching,
                  spare_is_worst: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent utility and index of the worst held partner: the lowest
    utility, ties going to the higher partner index.

    Agents without a partner get (-inf, n_other).  With `spare_is_worst`, so
    do agents below capacity: an empty slot is worse than any edge.
    """
    _check_shape(matching, market)
    agents, partners, n = matching._columns(side)
    us = market.utility_matrix(side)[agents, partners]
    order = np.lexsort((-partners, us, agents))
    first = order[np.diff(agents[order], prepend=-1) != 0]  # each agent's worst
    if spare_is_worst:
        first = first[matching.match_counts(side)[agents[first]] >= market.cap(side)]
    worst_u = np.full(n, -np.inf)
    worst_j = np.full(n, market.n(other_side(side)), dtype=np.int64)
    worst_u[agents[first]] = us[first]
    worst_j[agents[first]] = partners[first]
    return worst_u, worst_j


def _prefers_to_worst(market: Market, side: str, matching: Matching, weak: bool = False):
    """Test of the edges a `side` agent strictly prefers to its worst held
    partner, with a free slot worse than any edge.  With `weak`, the worst
    partner itself qualifies too.

    Called as ``keep(agents, partners)`` either with two slices, for the
    block of the (n_side, n_other) test that `_mutual_edges` asks for, or
    with two equal-length index arrays, for those edges only."""
    wu, wj = worst_partner(market, side, matching, spare_is_worst=True)
    bound = wj + 1 if weak else wj
    u = market.utility_matrix(side)

    def keep(agents, partners):
        ub = u[agents, partners]
        if isinstance(agents, slice):
            agents = np.arange(market.n(side))[agents, None]
            partners = np.arange(market.n(other_side(side)))[partners]
        w = wu[agents]
        # an equal utility goes by partner index
        return (ub > w) | ((ub == w) & (partners < bound[agents]))

    return keep


# edges per chunk of a restricted stability audit: each int64 temporary
# stays at 2 MB
_EDGE_CHUNK = 1 << 18


def verify_stability(market: Market, edges: EdgeSet | None, matching: Matching) -> list[tuple[int, int]]:
    """Every edge of `edges` that blocks `matching`; empty list iff stable.

    An edge blocks when both endpoints strictly prefer each other to their
    worst current assignment, with a free slot treated as worse than any
    edge in the set.  A restricted set is tested edge by edge, so the cost
    tracks its edge count; the complete set is tested in row blocks.
    """
    _check_shape(edges, market)
    keep_left = _prefers_to_worst(market, LEFT, matching)
    keep_right = _prefers_to_worst(market, RIGHT, matching)
    if edges is None or edges.is_full():
        block = _mutual_edges(market.n_left, market.n_right, keep_left, keep_right).flat
    else:
        chunks = [np.empty(0, dtype=np.int64)]
        for lo in range(0, edges.edge_count, _EDGE_CHUNK):
            flat = edges.flat[lo:lo + _EDGE_CHUNK]
            i, j = np.divmod(flat, market.n_right)
            chunks.append(flat[keep_left(i, j) & keep_right(j, i)])
        block = np.concatenate(chunks)
    matched = matching.pair_array[:, 0] * market.n_right + matching.pair_array[:, 1]
    left, right = np.divmod(np.setdiff1d(block, matched, assume_unique=True), market.n_right)
    return list(zip(left.tolist(), right.tolist()))


# ---------------------------------------------------------------------------
# exact small-instance oracle


def _stable_in_submarket(partner_left, mask, ul, ur) -> bool:
    """Stability of a partial one-to-one assignment w.r.t. the edge set."""
    n_left, n_right = mask.shape
    partner_right = [-1] * n_right
    for i, j in enumerate(partner_left):
        if j >= 0:
            partner_right[j] = i
    for i in range(n_left):
        pi = partner_left[i]
        cur_l = (-np.inf, n_right) if pi < 0 else (ul[i, pi], -pi)
        for j in np.flatnonzero(mask[i]):
            if j == pi:
                continue
            if not ((ul[i, j], -j) > cur_l):
                continue
            qj = partner_right[j]
            cur_r = (-np.inf, n_left) if qj < 0 else (ur[j, qj], -qj)
            if (ur[j, i], -i) > cur_r:
                return False
    return True


def brute_force_stable_set(market: Market, edges: EdgeSet | None = None) -> list[Matching]:
    """All stable matchings of a small one-to-one market, by exhaustion.

    Testing oracle only: requires n_left == n_right <= 8 and unit
    capacities.  With the complete edge set only perfect matchings are
    enumerated (any stable matching is perfect there); restricted edge sets
    enumerate partial matchings too.
    """
    if market.cap_left != 1 or market.cap_right != 1:
        raise ValueError("brute_force_stable_set needs a one-to-one market")
    n = market.n_left
    if market.n_right != n or n > 8:
        raise ValueError("brute_force_stable_set is limited to n_left == n_right <= 8")
    ul = market.utility_matrix(LEFT)
    ur = market.utility_matrix(RIGHT)
    mask = EdgeSet.full(n, n).mask if edges is None else edges.mask

    stable: list[Matching] = []

    def emit(partner_left) -> None:
        sets = [[j] if j >= 0 else [] for j in partner_left]
        stable.append(Matching.from_left_sets(sets, n))

    if mask.all():
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

    allowed = [np.flatnonzero(mask[i]).tolist() for i in range(n)]
    used = [False] * n
    partner = [-1] * n

    def recurse(i: int) -> None:
        if i == n:
            if _stable_in_submarket(partner, mask, ul, ur):
                emit(list(partner))
            return
        partner[i] = -1
        recurse(i + 1)
        for j in allowed[i]:
            if not used[j]:
                used[j] = True
                partner[i] = j
                recurse(i + 1)
                partner[i] = -1
                used[j] = False

    recurse(0)
    return stable


# ---------------------------------------------------------------------------
# maximum bipartite matching


def max_bipartite_matching(edges: EdgeSet) -> int:
    """Size of a maximum-cardinality matching of the edge set."""
    # imported here: loading scipy.sparse.csgraph takes about 0.3 s and 33 MB,
    # which no other call needs
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    indptr, indices = edges.csr(LEFT)
    graph = csr_array((np.ones(indices.size, dtype=np.int8), indices, indptr),
                      shape=(edges.n_left, edges.n_right))
    return int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())
