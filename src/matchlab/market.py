"""Random two-sided market generation under rating/score utility models.

Every agent carries a public rating; every agent also holds a private score
for each agent on the other side.  An agent's utility for a potential
partner combines the partner's public rating with the agent's own private
score for that partner through a strictly increasing utility function.
"""

from __future__ import annotations

import json
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

LEFT = "left"
RIGHT = "right"
SIDES = (LEFT, RIGHT)

__all__ = [
    "LEFT",
    "RIGHT",
    "SIDES",
    "Market",
    "UtilityModel",
    "MODEL_REGISTRY",
    "aligned_rank",
    "custom_model",
    "generate_market",
    "linear_model",
    "load_market",
    "monotonicity_audit",
    "other_side",
    "preference_argsort",
    "rank_order",
    "register_model",
    "save_market",
    "stream_rng",
]


def other_side(side: str) -> str:
    if side == LEFT:
        return RIGHT
    if side == RIGHT:
        return LEFT
    raise ValueError(f"unknown side {side!r}")


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for the stream (seed, *key).

    Streams are keyed, not sequenced, so draws are independent of the order
    in which streams are consumed.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class UtilityModel:
    """Monotone utility pair over (partner public rating, own private score).

    The linear kind evaluates ``weight * rating + (1 - weight) * score`` on
    both sides.  Custom kinds supply one strictly increasing callable per
    side together with declared derivative bounds: ``slope_cap`` bounds the
    rating partial from above and ``ratio_low`` bounds the ratio of the
    rating and score partials from below.  Declarations are trusted but can
    be spot-checked with :func:`monotonicity_audit`.  A custom callable
    must be elementwise: markets evaluate it on blocks of rows, so an entry
    may depend only on its own (rating, score) pair.  `utility` takes an
    optional `out` array: the linear kind computes into it, and a custom
    callable's result is assigned into it, so markets fill their utility
    matrices in place.
    """

    kind: str
    weight: float | None = None
    name: str | None = None
    fn_left: Callable | None = None
    fn_right: Callable | None = None
    slope_cap: float | None = None
    ratio_low: float | None = None
    slope_floor: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "linear":
            if self.weight is None or not 0.0 < self.weight < 1.0:
                raise ValueError("linear model needs a rating weight in (0, 1)")
        elif self.kind == "custom":
            if self.fn_left is None or self.fn_right is None:
                raise ValueError("custom model needs one utility callable per side")
            if self.slope_cap is None or self.ratio_low is None:
                raise ValueError("custom model needs declared derivative bounds")
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def mu(self) -> float:
        """Upper bound on the rating partial derivative."""
        return self.weight if self.kind == "linear" else self.slope_cap

    @property
    def rho(self) -> float:
        """Lower bound on (rating partial) / (score partial)."""
        if self.kind == "linear":
            return self.weight / (1.0 - self.weight)
        return self.ratio_low

    @property
    def mu_floor(self) -> float:
        """Lower bound on the rating partial, used by the below-zero extension."""
        if self.kind == "linear":
            return self.weight
        return self.slope_floor if self.slope_floor is not None else self.slope_cap

    def utility(self, side: str, rating, score, out=None):
        """`side`'s utility for partners of public `rating` that it scores
        `score`, broadcast elementwise.  With `out`, the result is written
        into that array and returned; the bits are the same either way."""
        if self.kind == "linear":
            return np.add(self.weight * rating, np.multiply(1.0 - self.weight, score, out=out), out=out)
        fn = self.fn_left if side == LEFT else self.fn_right
        if out is None:
            return fn(rating, score)
        out[...] = fn(rating, score)
        return out

    def utility_extended(self, side: str, rating, score):
        """Utility with the rating axis linearly extended below zero."""
        if self.kind == "linear":
            return self.utility(side, rating, score)
        r = np.asarray(rating, dtype=float)
        base = self.utility(side, np.maximum(r, 0.0), score)
        return base + self.mu_floor * np.minimum(r, 0.0)

    def describe(self) -> dict:
        if self.kind == "linear":
            return {"kind": "linear", "weight": self.weight}
        return {"kind": "custom", "name": self.name}


MODEL_REGISTRY: dict[str, UtilityModel] = {}


def linear_model(weight: float) -> UtilityModel:
    """Linear separable utilities with the given rating weight."""
    return UtilityModel(kind="linear", weight=float(weight))


def custom_model(
    name: str,
    fn_left: Callable,
    fn_right: Callable,
    *,
    ratio_low: float,
    slope_cap: float,
    slope_floor: float | None = None,
    register: bool = False,
) -> UtilityModel:
    """Custom monotone utility pair with declared derivative bounds.

    Both callables must be elementwise in (rating, score): utility matrices
    are evaluated on blocks of rows, not on whole matrices.  A callable
    returns a new array; when `UtilityModel.utility` is given `out`, that
    result is assigned into `out`, so the callable never sees it.  Registered
    models can round-trip through market files; unregistered ones only live
    in memory.
    """
    model = UtilityModel(
        kind="custom",
        name=name,
        fn_left=fn_left,
        fn_right=fn_right,
        ratio_low=float(ratio_low),
        slope_cap=float(slope_cap),
        slope_floor=None if slope_floor is None else float(slope_floor),
    )
    if register:
        register_model(model)
    return model


def register_model(model: UtilityModel) -> UtilityModel:
    if model.kind != "custom" or not model.name:
        raise ValueError("only named custom models belong in the registry")
    MODEL_REGISTRY[model.name] = model
    return model


def monotonicity_audit(model: UtilityModel, side: str = LEFT, grid: int = 50,
                       rating_range: tuple[float, float] = (0.0, 1.0)) -> bool:
    """Spot-check strict monotonicity along both axes on a sampled grid."""
    r = np.linspace(rating_range[0], rating_range[1], grid)
    s = np.linspace(0.0, 1.0, grid)
    u = np.asarray(model.utility(side, r[:, None], s[None, :]), dtype=float)
    return bool(np.all(np.diff(u, axis=0) > 0) and np.all(np.diff(u, axis=1) > 0))


def rank_order(ratings) -> np.ndarray:
    """Agent indices sorted by descending rating, ties broken by lower index."""
    return np.argsort(-np.asarray(ratings, dtype=float), kind="stable")


# rows per block of preference_argsort, the utility matrices, the score-row
# draws and the engine's two-sided edge masks and proposer lists: 64 rows of
# 4000 float64 values take 2 MB, so a block and its temporaries stay near a
# core's L2 cache instead of main memory
_BLOCK_ROWS = 64


def preference_argsort(u: np.ndarray) -> np.ndarray:
    """Row-wise ``np.argsort(-u, axis=1, kind="stable")``, computed cheaper.

    Each block of rows gets an unstable sort; a row whose sorted values hold
    an exact repeat or a NaN, where the order of equal keys matters, is sorted
    again stably.  Working block by block keeps the temporaries small instead
    of allocating a full negated copy of `u`.
    """
    out = np.empty(u.shape, dtype=np.int64)
    for lo in range(0, u.shape[0], _BLOCK_ROWS):
        neg = -u[lo:lo + _BLOCK_ROWS]
        idx = np.argsort(neg, axis=1)
        vals = np.take_along_axis(neg, idx, axis=1)
        redo = np.isnan(vals[:, -1:]).any(axis=1) | (vals[:, 1:] == vals[:, :-1]).any(axis=1)
        for r in np.flatnonzero(redo):
            idx[r] = np.argsort(neg[r], kind="stable")
        out[lo:lo + idx.shape[0]] = idx
    return out


def aligned_rank(rank: int, cap_own: int, cap_other: int, n_other: int) -> int | None:
    """Rank of the aligned agent on the other side, or None past its end.

    Ranks are 0-based positions in descending-rating order.  Alignment is
    capacity-weighted: the agent at rank r is aligned with the agent at rank
    ceil(cap_own * (r + 1) / cap_other) on the other side (1-based form).
    One-to-one alignment is the identity.
    """
    target = -((cap_own * (rank + 1)) // -cap_other)
    return target - 1 if target <= n_other else None


@dataclass(eq=False)
class Market:
    """One market instance.  Treat as immutable once constructed.

    ``scores_left[i, j]`` is left agent i's private score for right agent j;
    ``scores_right[j, i]`` is right agent j's score for left agent i.
    """

    n_left: int
    n_right: int
    cap_left: int
    cap_right: int
    ratings_left: np.ndarray
    ratings_right: np.ndarray
    scores_left: np.ndarray
    scores_right: np.ndarray
    model: UtilityModel
    seed: int | None = None
    rating_range_left: tuple[float, float] = (0.0, 1.0)
    rating_range_right: tuple[float, float] = (0.0, 1.0)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("ratings_left", "ratings_right", "scores_left", "scores_right"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            setattr(self, name, arr)
        if self.ratings_left.shape != (self.n_left,) or self.ratings_right.shape != (self.n_right,):
            raise ValueError("rating vector shapes disagree with side sizes")
        if self.scores_left.shape != (self.n_left, self.n_right):
            raise ValueError("scores_left must be (n_left, n_right)")
        if self.scores_right.shape != (self.n_right, self.n_left):
            raise ValueError("scores_right must be (n_right, n_left)")

    # -- side-indexed accessors ------------------------------------------
    def n(self, side: str) -> int:
        return self.n_left if side == LEFT else self.n_right

    def cap(self, side: str) -> int:
        return self.cap_left if side == LEFT else self.cap_right

    def ratings(self, side: str) -> np.ndarray:
        return self.ratings_left if side == LEFT else self.ratings_right

    def scores(self, side: str) -> np.ndarray:
        return self.scores_left if side == LEFT else self.scores_right

    def rating_range(self, side: str) -> tuple[float, float]:
        return self.rating_range_left if side == LEFT else self.rating_range_right

    @property
    def capacity_balanced(self) -> bool:
        return self.n_left * self.cap_left == self.n_right * self.cap_right

    # -- lazy per-side arrays, cached under (kind, side) ---------------------
    def _cached(self, kind: str, side: str, build: Callable[[str], np.ndarray]) -> np.ndarray:
        key = (kind, side)
        if key not in self._cache:
            self._cache[key] = build(side)
        return self._cache[key]

    def rank_to_agent(self, side: str) -> np.ndarray:
        """Permutation mapping rank position (0 = best) to agent index."""
        return self._cached("rank", side, lambda s: rank_order(self.ratings(s)))

    def agent_rank(self, side: str) -> np.ndarray:
        """Per-agent rank position (0 = highest rating)."""
        return self._cached("pos", side, self._agent_rank)

    def _agent_rank(self, side: str) -> np.ndarray:
        pos = np.empty(self.n(side), dtype=np.int64)
        pos[self.rank_to_agent(side)] = np.arange(self.n(side))
        return pos

    def utility_matrix(self, side: str) -> np.ndarray:
        """(n_side, n_other) utilities of `side` agents for the other side."""
        return self._cached("utility", side, self._utility_matrix)

    def _utility_matrix(self, side: str) -> np.ndarray:
        # written in place one block of rows at a time, so no temporary is
        # larger than a block
        rating = self.ratings(other_side(side))[None, :]
        scores = self.scores(side)
        out = np.empty(scores.shape)
        for lo in range(0, scores.shape[0], _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            self.model.utility(side, rating, scores[rows], out=out[rows])
        return out

    def preference_order(self, side: str) -> np.ndarray:
        """Full preference lists: partners by descending utility, ties by index.

        Sorted on every call, not cached: no suite reads a side's full lists
        twice, so a cached n x n int64 array would only hold memory."""
        return preference_argsort(self.utility_matrix(side))

    # -- alignment ----------------------------------------------------------
    def aligned_agent(self, side: str, agent: int) -> int | None:
        """Index of the aligned agent on the other side, or None."""
        opp = other_side(side)
        rank = int(self.agent_rank(side)[agent])
        target = aligned_rank(rank, self.cap(side), self.cap(opp), self.n(opp))
        if target is None:
            return None
        return int(self.rank_to_agent(opp)[target])

    def aligned_ratings(self, side: str) -> np.ndarray:
        """Per-agent rating of the aligned partner; NaN when there is none."""
        return self._cached("aligned_rating", side, self._aligned_ratings)

    def _aligned_ratings(self, side: str) -> np.ndarray:
        opp = other_side(side)
        cap_own, cap_opp = self.cap(side), self.cap(opp)
        pos = self.agent_rank(side)
        target = (cap_own * (pos + 1) + cap_opp - 1) // cap_opp  # 1-based, exact ceil
        out = np.full(self.n(side), np.nan)
        valid = target <= self.n(opp)
        opp_agents = self.rank_to_agent(opp)[target[valid] - 1]
        out[valid] = self.ratings(opp)[opp_agents]
        return out


def _resolve_ranges(n_left: int, n_right: int, cap_left: int, cap_right: int,
                    rating_ranges: str) -> tuple[tuple[float, float], tuple[float, float]]:
    unit = ((0.0, 1.0), (0.0, 1.0))
    if rating_ranges == "unit":
        return unit
    if rating_ranges == "auto":
        one_to_one = cap_left == 1 and cap_right == 1
        if not one_to_one or n_left == n_right:
            return unit
    elif rating_ranges != "scaled":
        raise ValueError("rating_ranges must be 'auto', 'unit' or 'scaled'")
    if n_left == n_right:
        return unit
    ratio = max(n_left, n_right) / min(n_left, n_right)
    long_range = (0.0, ratio)
    short_range = (ratio - 1.0, ratio)
    if n_left > n_right:
        return long_range, short_range
    return short_range, long_range


def _check_fits(n_left: int, n_right: int) -> None:
    """Refuse a market whose dense score and utility matrices (two of each,
    float64) would not fit in physical memory."""
    need = 4 * n_left * n_right * 8
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # no way to ask this platform; let the allocation decide
    if need > limit:
        raise ValueError(
            f"a {n_left} x {n_right} market needs about {need / 2**30:.1f} GiB for its dense "
            f"score and utility matrices, more than the {limit / 2**30:.1f} GiB of physical memory"
        )


# SeedSequence's hash constants (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _philox_keys(seed: int, label: int, rows) -> np.ndarray:
    """(len(rows), 2) uint64 Philox keys of the streams (seed, label, row).

    Row r gets ``np.random.SeedSequence(entropy=seed, spawn_key=(label, r))
    .generate_state(2, np.uint64)``, the key `stream_rng` seeds its Philox
    with.  This is numpy's SeedSequence hash (a pool of four 32-bit words)
    run once for all rows: words that do not depend on the row stay Python
    ints masked to 32 bits, and the row word, mixed in last, turns the pool
    into uint32 arrays whose arithmetic wraps.  `label` and the rows must be
    below 2**32, so each is one word.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = []
    while seed or not words:  # 32-bit words, least significant first; 0 is one word
        words.append(seed & _MASK32)
        seed >>= 32
    # a spawn key follows, so the seed's words are zero-padded to the pool size
    entropy = words + [0] * (4 - len(words)) + [label, np.asarray(rows, dtype=np.uint32)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for value in pool:
        value = value ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    # two little-endian words make one uint64, as in generate_state
    return np.stack(state, axis=-1).astype("<u4").view("<u8").astype(np.uint64)


def _fill_score_rows(seed: int, targets) -> None:
    """Fill row i of each (label, scores) target from stream (seed, label, i).

    Each matrix's stream keys are hashed in one vectorised pass.  A pool of
    up to two threads then fills one block of rows of either matrix per
    task: it resets one Philox to each row's key, with counter 0 and an
    empty buffer, and draws the row.  That is the state `stream_rng(seed,
    label, i)` starts in, so the bits equal its draws.  The bulk draws
    release the GIL; the resets are the only Python work left per row.  The
    pool lives only for this call and is joined before it returns, so a
    process forked afterwards inherits no threads.
    """

    def fill(keys: list, rows: np.ndarray) -> None:
        bitgen = np.random.Philox(0)  # reset to each row's stream below
        draw = np.random.Generator(bitgen)
        for key, row in zip(keys, rows):
            bitgen.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
                            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            draw.random(out=row)

    blocks = []
    for label, scores in targets:
        keys = _philox_keys(seed, label, np.arange(scores.shape[0])).tolist()
        blocks += [(keys[lo:lo + _BLOCK_ROWS], scores[lo:lo + _BLOCK_ROWS])
                   for lo in range(0, scores.shape[0], _BLOCK_ROWS)]
    with ThreadPoolExecutor(max_workers=min(2, _usable_cpus())) as pool:
        list(pool.map(fill, *zip(*blocks)))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def generate_market(
    n_left: int,
    n_right: int,
    cap_left: int = 1,
    cap_right: int = 1,
    *,
    model: UtilityModel,
    seed: int,
    rating_ranges: str = "auto",
) -> Market:
    """Draw a market: uniform ratings on their ranges, uniform [0,1] scores.

    All draws come from streams keyed by (seed, stream label), so the
    instance is a pure function of (seed, parameters).  Unbalanced
    one-to-one markets get the widened/offset rating ranges under "auto";
    pass rating_ranges="unit" to force both sides onto [0, 1].
    """
    if n_left < 1 or n_right < 1:
        raise ValueError("both sides need at least one agent")
    if cap_left < 1 or cap_right < 1:
        raise ValueError("capacities must be at least 1")
    _check_fits(n_left, n_right)
    range_left, range_right = _resolve_ranges(n_left, n_right, cap_left, cap_right, rating_ranges)

    def draw_ratings(label: int, n: int, lohi: tuple[float, float]) -> np.ndarray:
        lo, hi = lohi
        return lo + (hi - lo) * stream_rng(seed, label).random(n)

    ratings_left = draw_ratings(0, n_left, range_left)
    ratings_right = draw_ratings(1, n_right, range_right)
    scores_left = np.empty((n_left, n_right))
    scores_right = np.empty((n_right, n_left))
    _fill_score_rows(seed, ((2, scores_left), (3, scores_right)))

    return Market(
        n_left=n_left,
        n_right=n_right,
        cap_left=cap_left,
        cap_right=cap_right,
        ratings_left=ratings_left,
        ratings_right=ratings_right,
        scores_left=scores_left,
        scores_right=scores_right,
        model=model,
        seed=seed,
        rating_range_left=range_left,
        rating_range_right=range_right,
    )


def save_market(market: Market, path) -> None:
    """Write a self-describing dump that round-trips bit-exactly."""
    meta = {
        "n_left": market.n_left,
        "n_right": market.n_right,
        "cap_left": market.cap_left,
        "cap_right": market.cap_right,
        "seed": market.seed,
        "rating_range_left": list(market.rating_range_left),
        "rating_range_right": list(market.rating_range_right),
        "model": market.model.describe(),
    }
    meta_bytes = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(
            fh,
            meta=meta_bytes,
            ratings_left=market.ratings_left,
            ratings_right=market.ratings_right,
            scores_left=market.scores_left,
            scores_right=market.scores_right,
        )


def load_market(path) -> Market:
    """Inverse of :func:`save_market`; custom models must be registered."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        spec = meta["model"]
        if spec["kind"] == "linear":
            model = linear_model(spec["weight"])
        else:
            name = spec.get("name")
            if name not in MODEL_REGISTRY:
                raise KeyError(f"custom model {name!r} not in MODEL_REGISTRY; register it before loading")
            model = MODEL_REGISTRY[name]
        return Market(
            n_left=int(meta["n_left"]),
            n_right=int(meta["n_right"]),
            cap_left=int(meta["cap_left"]),
            cap_right=int(meta["cap_right"]),
            ratings_left=data["ratings_left"],
            ratings_right=data["ratings_right"],
            scores_left=data["scores_left"],
            scores_right=data["scores_right"],
            model=model,
            seed=meta["seed"],
            rating_range_left=tuple(meta["rating_range_left"]),
            rating_range_right=tuple(meta["rating_range_right"]),
        )
