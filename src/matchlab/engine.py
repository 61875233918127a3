"""Deferred acceptance in all variants and stability audits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import _BLOCK_ROWS, LEFT, RIGHT, SIDES, Market, _map_blocks, other_side

__all__ = [
    "CutSpec",
    "EdgeSet",
    "Matching",
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
    def full(cls, n_left: int, n_right: int) -> "EdgeSet":
        return cls(np.arange(n_left * n_right), n_left, n_right)

    @property
    def edge_count(self) -> int:
        return self.flat.size

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

    def __and__(self, other: "EdgeSet") -> "EdgeSet":
        _check_shape(other, self)
        return EdgeSet(np.intersect1d(self.flat, other.flat, assume_unique=True),
                       self.n_left, self.n_right)

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


class Matching:
    """Capacitated assignment between the two sides: the `EdgeSet` of its
    matched (left, right) pairs, which every per-agent view reads, plus the
    record of the run that produced it.

    ``proposal_counts`` records, per proposing-side agent, how many edges it
    offered during that run (all zeros for matchings not produced by
    deferred acceptance).
    """

    __slots__ = ("edges", "proposing_side", "proposal_counts")

    def __init__(self, pairs, n_left: int, n_right: int, proposing_side: str = LEFT,
                 proposal_counts=None) -> None:
        if proposing_side not in SIDES:
            raise ValueError(f"unknown proposing side {proposing_side!r}")
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if (pairs < 0).any() or (pairs >= (n_left, n_right)).any():
            raise ValueError("matched pair index out of range")
        flat = np.sort(pairs[:, 0] * n_right + pairs[:, 1])
        if (flat[1:] == flat[:-1]).any():
            raise ValueError("a matched pair appears more than once")
        self.edges = EdgeSet(flat, n_left, n_right)
        self.proposing_side = proposing_side
        n_prop = n_left if proposing_side == LEFT else n_right
        self.proposal_counts = (np.zeros(n_prop, dtype=np.int64) if proposal_counts is None
                                else np.asarray(proposal_counts, dtype=np.int64))
        if self.proposal_counts.shape != (n_prop,):
            raise ValueError(f"proposal_counts needs one entry per proposing agent ({n_prop})")

    @property
    def n_left(self) -> int:
        return self.edges.n_left

    @property
    def n_right(self) -> int:
        return self.edges.n_right

    def pairs(self) -> frozenset:
        return frozenset(map(tuple, self.edges.pairs().tolist()))

    def partner(self, side: str) -> np.ndarray:
        """One-to-one convenience: per-agent partner index, -1 if unmatched."""
        indptr, partners = self.edges.csr(side)
        count = np.diff(indptr)
        if (count > 1).any():
            raise ValueError("partner() needs a one-to-one matching")
        out = np.full(count.size, -1, dtype=np.int64)
        out[count > 0] = partners
        return out

    def matched_mask(self, side: str) -> np.ndarray:
        return self.edges.degrees(side) > 0


def _ranks_above(u, i, w, j):
    """Whether partner `i` at utility `u` ranks above partner `j` at utility
    `w`: higher utility, or equal utility and a lower index.  Every list and
    every receiver orders its partners this way."""
    return (u > w) | ((u == w) & (i < j))


# edges per chunk of a restricted edge set's per-edge tests, so each int64
# temporary stays at 512 kB
_EDGE_CHUNK = 1 << 16


def _edge_chunks(edges: EdgeSet):
    """(flat indices, left agents, right agents) of `edges`, one chunk of at
    most `_EDGE_CHUNK` edges at a time, in flat order."""
    for lo in range(0, edges.edge_count, _EDGE_CHUNK):
        flat = edges.flat[lo:lo + _EDGE_CHUNK]
        yield (flat, *np.divmod(flat, edges.n_right))


def _kept_edges(edges: EdgeSet, keep_left, keep_right) -> EdgeSet:
    """The edges of `edges` that both tests keep, tested edge by edge, one
    chunk at a time, with two equal-length index arrays: ``keep_left(i, j)``
    and ``keep_right(j, i)``."""
    kept = [flat[keep_left(i, j) & keep_right(j, i)] for flat, i, j in _edge_chunks(edges)]
    return EdgeSet(np.concatenate([np.empty(0, dtype=np.int64), *kept]),
                   edges.n_left, edges.n_right)


def _mutual_edges(market: Market, keep_left, keep_right) -> EdgeSet:
    """The edges of the complete set that both sides keep.

    The tests run one block of left rows at a time, each called as
    ``keep(agents, partners)`` with two slices, its own agents first, and
    return that block of the side's boolean test; None keeps every edge.
    The right-side test covers those left agents only, so its transpose
    stays in cache, and each block gives the flat indices of its kept
    edges, already row-major.  The blocks run through `_map_blocks`, so a
    test may raise but must not write to shared state.
    """
    n_left, n_right = market.n_left, market.n_right
    every = slice(None)

    def kept(lo: int) -> np.ndarray:
        rows = slice(lo, lo + _BLOCK_ROWS)
        if keep_right is None:
            block = keep_left(rows, every)
        elif keep_left is None:
            block = keep_right(every, rows).T
        else:
            block = keep_left(rows, every)
            block &= keep_right(every, rows).T
        return np.flatnonzero(block) + lo * n_right

    return EdgeSet(np.concatenate([np.empty(0, dtype=np.int64), *_map_blocks(kept, n_left)]),
                   n_left, n_right)


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
        # rows holding an exact tie are sorted again stably
        redo = np.zeros(hi - lo, dtype=bool)
        redo[rows[1:][(rows[1:] == rows[:-1]) & (keys[1:] == keys[:-1])]] = True
        if redo.any():
            again = np.flatnonzero(redo[prop])
            order[redo[rows]] = again[np.lexsort((key[again], prop[again]))]
        indices[span] = recv[order]
    return indptr, indices


# Each free proposer reads a window of its list per round, `_WINDOW_START`
# entries at first.  The window doubles, up to `_WINDOW_CAP`, after each round
# in which the proposer makes no proposal, and falls back to `_WINDOW_START`
# once it makes one.  Windows of any size give the same run.
_WINDOW_START = 4
_WINDOW_CAP = 32


def run_da(market: Market, proposing_side: str = LEFT, edges: EdgeSet | None = None) -> Matching:
    """Proposer-optimal stable matching of the sub-market induced by `edges`.

    Receivers hold their `cap` best proposals so far and bump the worst;
    proposers that exhaust their lists stay unmatched.  The set of proposals
    does not depend on processing order (McVitie & Wilson 1971), so the run
    goes in synchronous rounds: every free proposer reads a window of its
    list (sized per proposer, see `_WINDOW_START`), proposes to the first
    entries whose receiver it beats, and each receiver keeps its `cap` best
    of held plus new proposals.  A receiver's threshold (its worst held
    proposal once full) only rises, so an entry skipped in the window is a
    proposal sequential DA would make and lose; it counts in
    ``proposal_counts``.

    About one scanned entry in a hundred wins, so only two gathers run over
    the whole window: each entry's receiver and that receiver's threshold
    utility.  An entry whose threshold is above the proposer's best utility
    at any receiver (`Market.best_utility`, cached with the receivers'
    utility matrix) loses unread.  The rest, a few per cent on full lists,
    get their utility gathered and compared with the threshold.  An entry
    that ties the threshold is proposed even when the held proposer's lower
    index wins the tie: the receiver's ordering bounces it, and the
    proposer's pointer counts it, as sequential DA would.

    A one-to-one market run with no edge set keeps its matching and its
    proposers' lists in the market's cache until a run from the other side,
    which derives its matching from them by rotations (`_other_optimum`)
    instead of running the rounds again; the matching and
    ``proposal_counts`` are those the rounds would give.
    """
    prop = proposing_side
    recv = other_side(prop)
    n_p, n_r = market.n(prop), market.n(recv)
    cap_p, cap_r = market.cap(prop), market.cap(recv)
    _check_shape(edges, market)
    handoff = edges is None and cap_p == 1 and cap_r == 1
    if handoff and ("da", recv) in market._cache:
        return _other_optimum(market, *market._cache.pop(("da", recv)))
    indptr, indices = _candidate_lists(market, prop, edges)
    end = np.diff(indptr)
    u_recv = market.utility_matrix(recv)
    u_flat = u_recv.ravel()  # [j * n_p + i]: receiver j's utility for i
    best = market.best_utility(recv)  # per proposer

    ptr = np.zeros(n_p, dtype=np.int64)
    n_match = np.zeros(n_p, dtype=np.int64)
    window = np.full(n_p, _WINDOW_START, dtype=np.int64)
    held = np.full((n_r, cap_r), -1, dtype=np.int64)  # best first, -1 pads free slots
    thr_u = np.full(n_r, -np.inf)  # worst held utility once full; -inf while room
    seen = np.zeros(n_r, dtype=bool)  # scratch: the receivers proposed to in a round

    while True:
        free = np.flatnonzero((n_match < cap_p) & (ptr < end))
        if free.size == 0:
            break
        length = np.minimum(end[free] - ptr[free], window[free])
        first = np.cumsum(length) - length  # each window's offset in the round
        at = np.repeat(indptr[free] + ptr[free] - first, length)
        at += np.arange(at.size)
        j = indices[at]
        t = thr_u[j]
        cand = np.flatnonzero(t <= np.repeat(best[free], length))
        seg = np.searchsorted(first, cand, side="right") - 1  # each candidate's window
        # full lists arrive in a narrow dtype, in which j * n_p would wrap
        i, j = free[seg], j[cand].astype(np.int64)
        u = u_flat[j * n_p + i]
        beat = u >= t[cand]
        cand, seg, i, j, u = cand[beat], seg[beat], i[beat], j[beat], u[beat]
        # the first `open` entries of each window that reach their
        # receiver's threshold are proposals
        rank = np.arange(1, seg.size + 1) - np.searchsorted(seg, seg)
        open_ = (cap_p - n_match[free])[seg]
        chosen = rank <= open_
        filled = rank == open_
        # a proposer that fills its last open slot stops right after it
        length[seg[filled]] = cand[filled] - first[seg[filled]] + 1
        ptr[free] += length
        window[free] = np.minimum(window[free] * 2, _WINDOW_CAP)
        window[i] = _WINDOW_START

        # receivers keep their cap_r best of held plus new, keys (u desc, i asc)
        new_i, new_j, new_u = i[chosen], j[chosen], u[chosen]
        seen[new_j] = True
        touched = np.flatnonzero(seen)
        seen[touched] = False
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

    rj, slot = np.nonzero(held >= 0)
    ri = held[rj, slot]
    pairs = np.column_stack((ri, rj) if prop == LEFT else (rj, ri))
    matching = Matching(pairs, market.n_left, market.n_right, prop, ptr)
    if handoff:
        market._cache[("da", prop)] = (matching, indices)
    return matching


def _other_optimum(market: Market, first: Matching, lists: np.ndarray) -> Matching:
    """The stable matching that run_da from the receivers' side gives, derived
    from `first`, the proposers' optimum of a complete one-to-one market, and
    the proposers' full lists (row-major, flat) by rotation elimination
    (Gusfield & Irving 1989).

    X is the side that proposed in `first`, Y the other.  For a matched X
    agent i, s(i) is the first entry after its partner in its list whose Y
    agent prefers i to its own partner (an unmatched Y agent accepts anyone),
    and next(i) is that Y agent's partner; i has no next when it has no s(i)
    or s(i) is unmatched.  Every cycle of `next` is an exposed rotation, and
    all are found at once by pointer doubling; every agent on one moves to
    its s(i).  s only moves forward, so it is scanned again only for the
    agents that moved (from s(i) + 1) and those whose s(i) got a new partner
    (from s(i)).  With no cycle left the matching is Y's optimum; the X
    agents `first` leaves unmatched stay unmatched (rural hospitals).  A Y
    agent's DA proposals run down its list to its partner, so it counts one
    more than the X agents it ranks above that partner, or all of them if it
    is unmatched.
    """
    x = first.proposing_side
    y = other_side(x)
    n_x, n_y = market.n(x), market.n(y)
    u_y = market.utility_matrix(y)
    u_flat = u_y.ravel()  # [j * n_x + i]: Y agent j's utility for i
    # each Y agent's partner, n_x if it has none: the same Y agents stay
    # matched, and n_x is also where next points when there is none
    held = first.partner(y)
    matched = held >= 0
    held[~matched] = n_x
    held_u = np.full(n_y, -np.inf)  # each Y agent's utility for its partner
    held_u[matched] = u_y[matched, held[matched]]

    def scan(agents: np.ndarray, start: np.ndarray) -> np.ndarray:
        """Per agent, the first list position from `start` on whose Y agent
        prefers it to that Y agent's partner; n_y where there is none."""
        out = np.full(agents.size, n_y, dtype=np.int64)
        todo, pos = np.arange(agents.size), start.astype(np.int64)
        width = _WINDOW_START
        while todo.size:
            length = np.minimum(n_y - pos, width)
            first_at = np.cumsum(length) - length  # each window's offset
            i = agents[todo]
            at = np.repeat(i * n_y + pos - first_at, length) + np.arange(length.sum())
            j = lists[at].astype(np.int64)
            i = np.repeat(i, length)
            hit = np.flatnonzero(_ranks_above(u_flat[j * n_x + i], i, held_u[j], held[j]))
            seg = np.searchsorted(first_at, hit, side="right") - 1
            lead = np.diff(seg, prepend=-1) != 0  # each window's first hit
            hit, seg = hit[lead], seg[lead]
            out[todo[seg]] = pos[seg] + hit - first_at[seg]
            pos += length
            more = np.ones(todo.size, dtype=bool)
            more[seg] = False
            more &= pos < n_y
            todo, pos = todo[more], pos[more]
            width *= 2
        return out

    s_pos = np.full(n_x, n_y, dtype=np.int64)  # list position of s(i); n_y: none
    agents = held[matched]
    # a matched proposer's count is one past its partner's list position
    s_pos[agents] = scan(agents, first.proposal_counts[agents])
    while True:
        has = np.flatnonzero(s_pos < n_y)
        s = np.zeros(n_x, dtype=np.int64)
        s[has] = lists[has * n_y + s_pos[has]]
        reach = np.full(n_x + 1, n_x)  # next, n_x where there is none
        reach[has] = held[s[has]]
        for _ in range(n_x.bit_length()):  # reach = next^(2^k), 2^k > n_x
            reach = reach[reach]
        on_cycle = np.zeros(n_x + 1, dtype=bool)
        on_cycle[reach] = True  # every tail has ended on its cycle
        on_cycle = on_cycle[:n_x]
        movers = np.flatnonzero(on_cycle)
        if movers.size == 0:
            break
        targets = s[movers]
        held[targets] = movers
        held_u[targets] = u_y[targets, movers]
        new_partner = np.zeros(n_y, dtype=bool)
        new_partner[targets] = True
        passed = has[new_partner[s[has]] & ~on_cycle[has]]
        s_pos[movers] = scan(movers, s_pos[movers] + 1)
        s_pos[passed] = scan(passed, s_pos[passed])

    idx = np.arange(n_x)

    def count(lo: int) -> np.ndarray:
        rows = slice(lo, lo + _BLOCK_ROWS)
        return _ranks_above(u_y[rows], idx, held_u[rows, None], held[rows, None]).sum(axis=1)

    counts = np.concatenate(_map_blocks(count, n_y)) + 1
    counts[~matched] = n_x
    j = np.flatnonzero(matched)
    pairs = np.column_stack((held[j], j) if x == LEFT else (j, held[j]))
    return Matching(pairs, market.n_left, market.n_right, y, counts)


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
            out &= _ranks_above(ub, idx[cols], ut, t + 1)
        return out

    tests = (keep, None) if prop == LEFT else (None, keep)
    return _mutual_edges(market, *tests)


def run_double_cut_da(market: Market, proposing_side: str, cut: CutSpec) -> Matching:
    """Deferred acceptance where proposers stop at the target or floor.

    Equivalent to truncating every proposer's list at the first of (its edge
    to the target, inclusive) and (utility below the floor), then running
    plain deferred acceptance.
    """
    return run_da(market, proposing_side, double_cut_edges(market, proposing_side, cut))


def extreme_matchings(market: Market, edges: EdgeSet | None = None) -> tuple[Matching, Matching]:
    """(left-optimal, right-optimal) stable matchings via the two proposing
    directions; `run_da` derives the second by rotations when it can."""
    return run_da(market, LEFT, edges), run_da(market, RIGHT, edges)


def multi_stable_agents(market: Market) -> tuple[frozenset, frozenset]:
    """Agents whose partner differs between the two extreme stable matchings.

    Returns (left agents, right agents).  One-to-one markets only.
    """
    if market.cap_left != 1 or market.cap_right != 1:
        raise ValueError("multi_stable_agents needs a one-to-one market")
    left_opt, right_opt = extreme_matchings(market)
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
    indptr, partners = matching.edges.csr(side)
    count = np.diff(indptr)
    agents = np.repeat(np.arange(count.size), count)
    us = market.utility_matrix(side)[agents, partners]
    order = np.lexsort((-partners, us, agents))
    first = order[np.diff(agents[order], prepend=-1) != 0]  # each agent's worst
    if spare_is_worst:
        first = first[count[agents[first]] >= market.cap(side)]
    worst_u = np.full(count.size, -np.inf)
    worst_j = np.full(count.size, market.n(other_side(side)), dtype=np.int64)
    worst_u[agents[first]] = us[first]
    worst_j[agents[first]] = partners[first]
    return worst_u, worst_j


def _prefers_to_worst(market: Market, side: str, matching: Matching, weak: bool = False):
    """(per-agent worst utility, test) of the edges a `side` agent strictly
    prefers to its worst held partner, with a free slot (-inf) worse than
    any edge.  With `weak`, the worst partner itself qualifies too.  The
    test is called as ``keep(agents, partners)`` with two equal-length
    index arrays."""
    wu, wj = worst_partner(market, side, matching, spare_is_worst=True)
    bound = wj + 1 if weak else wj
    u = market.utility_matrix(side)

    def keep(agents, partners):
        return _ranks_above(u[agents, partners], partners, wu[agents], bound[agents])

    return wu, keep


def _preferred_edges(market: Market, edges: EdgeSet | None, left: Matching, right: Matching,
                     weak: bool = False) -> EdgeSet:
    """The edges of `edges` (None: every edge) that the left end prefers to
    its worst partner in `left` and the right end to its worst in `right`,
    by `_prefers_to_worst`.

    A restricted set is tested edge by edge.  The complete set goes in two
    steps: each block of left rows makes one ``u >= worst`` comparison per
    side (`_mutual_edges`), a superset of the exact test; the exact test,
    with its index tie rule, then runs only on the edges both sides pass:
    for a stable matching, about one per matched pair plus exact ties.
    """
    _check_shape(edges, market)
    worst_l, keep_l = _prefers_to_worst(market, LEFT, left, weak)
    worst_r, keep_r = _prefers_to_worst(market, RIGHT, right, weak)
    if edges is None or edges.is_full():
        u_l, u_r = market.utility_matrix(LEFT), market.utility_matrix(RIGHT)
        edges = _mutual_edges(market, lambda rows, cols: u_l[rows, cols] >= worst_l[rows, None],
                              lambda rows, cols: u_r[rows, cols] >= worst_r[rows, None])
    return _kept_edges(edges, keep_l, keep_r)


def verify_stability(market: Market, edges: EdgeSet | None, matching: Matching) -> list[tuple[int, int]]:
    """Every edge of `edges` that blocks `matching`; empty list iff stable.

    An edge blocks when both endpoints strictly prefer each other to their
    worst current assignment, with a free slot treated as worse than any
    edge in the set.  The complete set is audited in two steps
    (`_preferred_edges`).
    """
    block = _preferred_edges(market, edges, matching, matching).flat
    left, right = np.divmod(np.setdiff1d(block, matching.edges.flat, assume_unique=True),
                            market.n_right)
    return list(zip(left.tolist(), right.tolist()))


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
