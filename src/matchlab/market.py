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
from dataclasses import KW_ONLY, dataclass, field
from typing import Callable

import numpy as np

LEFT = "left"
RIGHT = "right"
SIDES = (LEFT, RIGHT)

__all__ = [
    "LEFT",
    "RIGHT",
    "SIDES",
    "CustomModel",
    "LinearModel",
    "Market",
    "UtilityModel",
    "MODEL_REGISTRY",
    "custom_model",
    "generate_market",
    "linear_model",
    "load_market",
    "other_side",
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
class LinearModel:
    """``weight * rating + (1 - weight) * score`` on both sides."""

    weight: float

    def __post_init__(self) -> None:
        if not 0.0 < self.weight < 1.0:
            raise ValueError("linear model needs a rating weight in (0, 1)")

    @property
    def mu(self) -> float:
        """Upper bound on the rating partial derivative."""
        return self.weight

    mu_floor = mu  # lower bound on the rating partial: the same constant

    @property
    def rho(self) -> float:
        """Lower bound on (rating partial) / (score partial)."""
        return self.weight / (1.0 - self.weight)

    def utility(self, side: str, rating, score, out=None):
        """`side`'s utility for partners of public `rating` that it scores
        `score`, broadcast elementwise.  With `out`, the result is written
        into that array and returned; the bits are the same either way."""
        return np.add(self.weight * rating, np.multiply(1.0 - self.weight, score, out=out), out=out)

    def describe(self) -> dict:
        return {"kind": "linear", "weight": self.weight}


@dataclass(frozen=True)
class CustomModel:
    """Custom monotone utility pair with declared derivative bounds.

    One strictly increasing callable per side, returning finite values (a
    utility fill refuses any other).  ``slope_cap`` (`mu`) bounds the rating
    partial from above and ``slope_floor`` (`mu_floor`, default
    ``slope_cap``) from below; ``ratio_low`` (`rho`) bounds the ratio of the
    rating and score partials from below.  Declarations are trusted, not
    checked.  Both callables must be elementwise in (rating, score), as
    utility matrices are evaluated on blocks of rows; `utility` assigns a
    callable's new array into `out` when given one.  Models passed to
    `register_model` round-trip through market files; others stay in memory.
    """

    name: str
    fn_left: Callable
    fn_right: Callable
    _: KW_ONLY
    ratio_low: float
    slope_cap: float
    slope_floor: float | None = None

    def __post_init__(self) -> None:
        if self.fn_left is None or self.fn_right is None:
            raise ValueError("custom model needs one utility callable per side")
        if self.slope_cap is None or self.ratio_low is None:
            raise ValueError("custom model needs declared derivative bounds")
        for bound in ("ratio_low", "slope_cap", "slope_floor"):
            if getattr(self, bound) is not None:
                object.__setattr__(self, bound, float(getattr(self, bound)))

    @property
    def mu(self) -> float:
        return self.slope_cap

    @property
    def rho(self) -> float:
        return self.ratio_low

    @property
    def mu_floor(self) -> float:
        return self.slope_cap if self.slope_floor is None else self.slope_floor

    def utility(self, side: str, rating, score, out=None):
        fn = self.fn_left if side == LEFT else self.fn_right
        if out is None:
            return fn(rating, score)
        out[...] = fn(rating, score)
        return out

    def describe(self) -> dict:
        return {"kind": "custom", "name": self.name}


# a market's utility model; `custom_model` and `linear_model` build one
UtilityModel = LinearModel | CustomModel
custom_model = CustomModel
MODEL_REGISTRY: dict[str, CustomModel] = {}


def linear_model(weight: float) -> LinearModel:
    """Linear separable utilities with the given rating weight."""
    return LinearModel(float(weight))


def register_model(model: CustomModel) -> CustomModel:
    if not isinstance(model, CustomModel) or not model.name:
        raise ValueError("only named custom models belong in the registry")
    MODEL_REGISTRY[model.name] = model
    return model


def rank_order(ratings) -> np.ndarray:
    """Agent indices sorted by descending rating, ties broken by lower index."""
    return np.argsort(-np.asarray(ratings, dtype=float), kind="stable")


# rows per block of preference_argsort, the utility matrices, the score-row
# draws and the engine's two-sided edge masks and proposer lists: 64 rows of
# 4000 float64 values take 2 MB, so a block and its temporaries stay near a
# core's L2 cache instead of main memory
_BLOCK_ROWS = 64


def _usable_cpus() -> int:
    """CPUs this process may run blocks on: one in a multiprocessing worker
    (a `--jobs` process), whose sibling workers keep the other CPUs busy;
    else every CPU it has affinity for."""
    import multiprocessing  # here, not at module top: startup never needs it

    if multiprocessing.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _map_blocks(fn: Callable[[int], object], n_rows: int) -> list:
    """``[fn(lo) for lo in range(0, n_rows, _BLOCK_ROWS)]``, on up to two threads.

    Each call gets its own pool, joined before it returns, so a process
    forked afterwards (the `--jobs` workers) inherits no threads.  One block,
    or one usable CPU (as in each `--jobs` worker), runs inline and starts
    no thread.  `fn` must touch
    only its own block's rows of any array it writes; the results come back
    in block order, so the output does not depend on the number of threads.
    The bulk numpy work in each block releases the GIL, which is what lets
    two blocks run at once.
    """
    starts = range(0, n_rows, _BLOCK_ROWS)
    workers = min(2, _usable_cpus(), len(starts))
    if workers < 2:
        return [fn(lo) for lo in starts]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, starts))


def preference_argsort(u: np.ndarray) -> np.ndarray:
    """Row-wise ``np.argsort(-u, axis=1, kind="stable")``, computed cheaper
    and held in the smallest signed integer dtype that holds every column
    index: int8 up to 128 columns, int16 up to 32768, int32 beyond.  The
    values equal the stable argsort's; only the dtype is narrower than its
    int64, so an n x 2000 table takes 2 bytes a cell instead of 8.  Signed,
    so arithmetic on the result cannot wrap below zero; a caller that
    multiplies an entry by a size widens it first.

    Each block of rows is sorted by value, not by argsort: every entry
    becomes one uint64 key, its float64 bits mapped so that the unsigned
    order is the descending order of the values (-0.0 first made 0.0), with
    the low bits, as many as the largest column index needs, replaced by the
    column.
    One `np.sort` of the keys then orders each row, ties going to the lower
    column, and the low bits read back as the indices.  A row in which two
    keys agree above the low bits (an exact tie, or distinct values that
    differ only there) is sorted again stably.  Working block by block keeps
    the temporaries small, and lets `_map_blocks` sort two blocks at once.
    The values must be finite, as a market's utilities are.
    """
    n_cols = u.shape[1]
    out = np.empty(u.shape, dtype=np.min_scalar_type(-max(n_cols, 1)))
    if n_cols == 0:
        return out
    low = np.uint64(max(1, (n_cols - 1).bit_length()))
    low_mask = (np.uint64(1) << low) - np.uint64(1)
    cols = np.arange(n_cols, dtype=np.uint64)

    def sort(lo: int) -> None:
        rows = slice(lo, lo + _BLOCK_ROWS)
        key = np.add(u[rows], 0.0, dtype=np.float64).view(np.uint64)  # -0.0 + 0.0 is 0.0
        # non-negative values: flip the 63 value bits, so larger sorts first,
        # below 2**63; negative values keep their bits, above 2**63
        flip = key >> np.uint64(63)
        flip -= np.uint64(1)
        flip >>= np.uint64(1)
        key ^= flip
        key &= ~low_mask
        key |= cols
        key.sort(axis=1)
        idx = out[rows]
        np.bitwise_and(key, low_mask, out=idx, casting="unsafe")
        key >>= low
        redo = (key[:, 1:] == key[:, :-1]).any(axis=1)
        if redo.any():
            idx[redo] = np.argsort(-u[rows][redo], axis=1, kind="stable")

    _map_blocks(sort, u.shape[0])
    return out


def _check_finite(u: np.ndarray, model: UtilityModel, side: str, lo: int = 0) -> None:
    """Refuse `side` utilities (rows from agent `lo` on) unless all are
    finite, so every sort, DA run and audit reads one strict order."""
    if not np.isfinite(u).all():
        i, j = np.argwhere(~np.isfinite(u))[0]
        raise ValueError(f"utility model {model.describe()} gives {side} agent {lo + i} a "
                         f"non-finite utility ({u[i, j]}) for partner {j}; utilities must be finite")


# stream labels of the score rows (seed, label, row); ratings use labels 0 and 1
_SCORE_LABELS = {LEFT: 2, RIGHT: 3}


@dataclass(eq=False)
class Market:
    """One market instance.  Treat as immutable once constructed.

    ``scores(LEFT)[i, j]`` is left agent i's private score for right agent
    j; ``scores(RIGHT)[j, i]`` is right agent j's score for left agent i.
    Every market draws its scores from `seed` whenever it needs them, so it
    holds no score matrix.  It caches each side's utility matrix on first
    use, and beside it the column maxima (`best_utility`) taken during the
    same fill.  Under ``("da", side)`` it holds a one-to-one `run_da`'s
    matching and lists until the run from the other side (`engine.run_da`).
    """

    n_left: int
    n_right: int
    cap_left: int
    cap_right: int
    ratings_left: np.ndarray
    ratings_right: np.ndarray
    model: UtilityModel
    seed: int
    rating_range_left: tuple[float, float] = (0.0, 1.0)
    rating_range_right: tuple[float, float] = (0.0, 1.0)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("ratings_left", "ratings_right"):
            arr = np.asarray(getattr(self, name), dtype=float)
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise ValueError(f"{name}[{bad[0]}] is {arr[bad[0]]}; ratings must be finite")
            arr.setflags(write=False)
            setattr(self, name, arr)
        if self.ratings_left.shape != (self.n_left,) or self.ratings_right.shape != (self.n_right,):
            raise ValueError("rating vector shapes disagree with side sizes")
        for name in ("cap_left", "cap_right"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} is {getattr(self, name)}; capacities must be at least 1")
        _check_seed(self.seed)

    # -- side-indexed accessors ------------------------------------------
    def n(self, side: str) -> int:
        return self.n_left if side == LEFT else self.n_right

    def cap(self, side: str) -> int:
        return self.cap_left if side == LEFT else self.cap_right

    def ratings(self, side: str) -> np.ndarray:
        return self.ratings_left if side == LEFT else self.ratings_right

    def scores(self, side: str) -> np.ndarray:
        """(n_side, n_other) private scores of `side` agents for the other side.

        A fresh draw from the market's seed on every call, which is never
        cached, so a caller that keeps it pays for the matrix and one that
        drops it frees it."""
        out = np.empty((self.n(side), self.n(other_side(side))))
        _fill_score_rows(self.seed, _SCORE_LABELS[side], out)
        return out

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
        key = ("utility", side)
        if key not in self._cache:
            self._cache[key], self._cache[("best_utility", side)] = self._utility_matrix(side)
        return self._cache[key]

    def best_utility(self, side: str) -> np.ndarray:
        """Per agent of the other side, the highest utility any `side` agent
        has for it: the column maxima of `utility_matrix(side)`, taken while
        the matrix is filled and cached beside it.  The sign of a zero
        maximum may differ from a whole-matrix `np.max`'s."""
        self.utility_matrix(side)
        return self._cache[("best_utility", side)]

    def _utility_matrix(self, side: str) -> tuple[np.ndarray, np.ndarray]:
        # (utility matrix, column maxima), written in place one block of rows
        # at a time, so no temporary is larger than a block: a block's scores
        # are drawn into the block of `out` that its utilities then
        # overwrite, is checked and gives its column maxima, while in cache
        rating = self.ratings(other_side(side))[None, :]
        out = np.empty((self.n(side), self.n(other_side(side))))

        def utility(lo: int, scores: np.ndarray) -> np.ndarray:
            block = self.model.utility(side, rating, scores, out=out[lo:lo + _BLOCK_ROWS])
            _check_finite(block, self.model, side, lo)
            return np.maximum.reduce(block, axis=0)

        maxima = _fill_score_rows(self.seed, _SCORE_LABELS[side], out, then=utility)
        return out, np.maximum.reduce(maxima, axis=0)

    def preference_order(self, side: str) -> np.ndarray:
        """Full preference lists: partners by descending utility, ties by index.

        The values equal ``np.argsort(-u, axis=1, kind="stable")`` of this
        side's utility matrix, in `preference_argsort`'s narrow signed dtype
        (int16 for 129 to 32768 partners), from its packed-key value sort.
        Sorted on every call, not cached here.  A one-to-one `run_da` with
        no edge set keeps the lists it sorted, with its matching, until the
        run from the other side derives its matching from them.  No suite
        reads a side's full lists twice, so a table cached for longer would
        only hold memory."""
        return preference_argsort(self.utility_matrix(side))

    # -- alignment ----------------------------------------------------------
    def aligned_ratings(self, side: str) -> np.ndarray:
        """Per-agent rating of the aligned partner; NaN when there is none.

        Alignment is capacity-weighted: the agent at 0-based rank r (in
        descending-rating order) is aligned with the agent at 1-based rank
        ceil(cap_own * (r + 1) / cap_other) on the other side, and has no
        aligned partner past that side's end.  One-to-one alignment is the
        identity.
        """
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
    """Refuse a market with an empty side, or whose dense work would not fit
    in physical memory.

    The bound is four n_left x n_right float64 matrices: the two utility
    matrices a market caches, plus the two score matrices that
    `interview_edges` or `selected_edges` redraws.  A full-list DA's
    preference lists fit inside it: 2 bytes a cell (int16) up to 32768
    partners, 4 beyond."""
    if n_left < 1 or n_right < 1:
        raise ValueError("both sides need at least one agent")
    need = 4 * n_left * n_right * 8
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # no way to ask this platform; let the allocation decide
    if need > limit:
        raise ValueError(
            f"a {n_left} x {n_right} market needs about {need / 2**30:.1f} GiB for its utility "
            f"and score matrices, more than the "
            f"{limit / 2**30:.1f} GiB of physical memory"
        )


def _check_seed(seed) -> int:
    """`seed` as an int, refusing what numpy's SeedSequence refuses, with
    the same exception types: a non-integer (TypeError) or a negative one
    (ValueError)."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be a non-negative integer, got {seed!r}") from None
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer, got {value}")
    return value


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
    seed = _check_seed(seed)
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


def _fill_score_rows(seed: int, label: int, out: np.ndarray,
                     then: Callable[[int, np.ndarray], object] | None = None) -> list:
    """Fill row i of `out` from stream (seed, label, i); with `then`, call
    ``then(lo, rows)`` on each block of rows just drawn, while it is in cache,
    and return its results in block order (Nones without `then`).

    The stream keys are hashed in one vectorised pass.  The blocks of rows
    then go through `_map_blocks`: a block resets one Philox to each row's
    key, with counter 0 and an empty buffer, and draws the row.  That is the
    state `stream_rng(seed, label, i)` starts in, so the bits equal its
    draws.  The bulk draws release the GIL; the resets are the only Python
    work left per row.
    """
    keys = _philox_keys(seed, label, np.arange(out.shape[0])).tolist()

    def fill(lo: int) -> None:
        rows = out[lo:lo + _BLOCK_ROWS]
        bitgen = np.random.Philox(0)  # reset to each row's stream below
        draw = np.random.Generator(bitgen)
        for key, row in zip(keys[lo:lo + _BLOCK_ROWS], rows):
            bitgen.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
                            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            draw.random(out=row)
        return None if then is None else then(lo, rows)

    return _map_blocks(fill, out.shape[0])


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
    instance is a pure function of (seed, parameters).  Only the ratings are
    drawn here: the market draws its score rows from `seed` when it fills a
    utility matrix or is asked for `scores(side)`, so nothing n x n is
    allocated until then.  Unbalanced
    one-to-one markets get the widened/offset rating ranges under "auto";
    pass rating_ranges="unit" to force both sides onto [0, 1].
    """
    _check_fits(n_left, n_right)
    seed = _check_seed(seed)  # before the rating draws, whose own error names no seed
    range_left, range_right = _resolve_ranges(n_left, n_right, cap_left, cap_right, rating_ranges)

    def draw_ratings(label: int, n: int, lohi: tuple[float, float]) -> np.ndarray:
        lo, hi = lohi
        return lo + (hi - lo) * stream_rng(seed, label).random(n)

    ratings_left = draw_ratings(0, n_left, range_left)
    ratings_right = draw_ratings(1, n_right, range_right)
    return Market(
        n_left=n_left,
        n_right=n_right,
        cap_left=cap_left,
        cap_right=cap_right,
        ratings_left=ratings_left,
        ratings_right=ratings_right,
        model=model,
        seed=seed,
        rating_range_left=range_left,
        rating_range_right=range_right,
    )


def save_market(market: Market, path) -> None:
    """Write a self-describing dump that round-trips bit-exactly: the meta
    JSON and the two rating vectors.  The seed in the meta fixes the
    scores, so the file holds no score array."""
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
        np.savez(fh, meta=meta_bytes, ratings_left=market.ratings_left,
                 ratings_right=market.ratings_right)


def load_market(path) -> Market:
    """Inverse of :func:`save_market`; custom models must be registered.

    The loaded market draws its scores from the file's seed, so a file that
    records no integer seed is refused, as is a size that would not fit in
    memory, before any array is read.  A file that also holds `scores_left` and
    `scores_right` (written before market files dropped them) loads only
    when each equals the seed's draw bit for bit.
    """
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        try:
            seed = _check_seed(meta["seed"])
        except TypeError:  # null or not an integer: no scores can be drawn
            raise ValueError(f"market file {path} records no integer seed: {meta['seed']!r}") from None
        _check_fits(int(meta["n_left"]), int(meta["n_right"]))
        spec = meta["model"]
        if spec["kind"] == "linear":
            model = linear_model(spec["weight"])
        else:
            name = spec.get("name")
            if name not in MODEL_REGISTRY:
                raise KeyError(f"custom model {name!r} not in MODEL_REGISTRY; register it before loading")
            model = MODEL_REGISTRY[name]
        market = Market(
            n_left=int(meta["n_left"]),
            n_right=int(meta["n_right"]),
            cap_left=int(meta["cap_left"]),
            cap_right=int(meta["cap_right"]),
            ratings_left=data["ratings_left"],
            ratings_right=data["ratings_right"],
            model=model,
            seed=seed,
            rating_range_left=tuple(meta["rating_range_left"]),
            rating_range_right=tuple(meta["rating_range_right"]),
        )
        for side in SIDES:
            key = f"scores_{side}"
            if key in data.files:
                held, drawn = data[key], market.scores(side)
                if held.shape != drawn.shape or held.tobytes() != drawn.tobytes():
                    raise ValueError(f"market file {path}: {key} differs from the scores "
                                     f"that seed {market.seed} draws")
    return market
