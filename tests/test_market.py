import ast
import inspect
import math
import re
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from hypothesis.vendor.pretty import pretty

import matchlab as ml
from matchlab import engine
from matchlab import market as market_module
from matchlab.analysis import _truncation_thresholds
from matchlab.market import (
    _BLOCK_ROWS,
    LEFT,
    RIGHT,
    LinearModel,
    _philox_keys,
    preference_argsort,
    rank_order,
)

from conftest import monotonicity_audit, rewrite_market_file, serial_score_rows

B = _BLOCK_ROWS


def test_linear_utility_values():
    model = ml.linear_model(0.5)
    assert model.utility(LEFT, 1.0, 1.0) == 1.0
    model = ml.linear_model(0.8)
    assert model.utility(LEFT, 0.5, 0.25) == pytest.approx(0.45)


def test_linear_model_validation():
    with pytest.raises(ValueError):
        ml.linear_model(0.0)
    with pytest.raises(ValueError):
        ml.linear_model(1.0)


def test_linear_derivative_bounds():
    model = ml.linear_model(0.8)
    assert model.mu == pytest.approx(0.8)
    assert model.rho == pytest.approx(4.0)


def curved_model():
    # rating enters through a convex ramp; still strictly increasing
    def u(r, s):
        return 0.4 * (r + r * r) + 0.2 * s

    return ml.custom_model("curved", u, u, ratio_low=2.0, slope_cap=1.2, slope_floor=0.4)


def test_custom_model_monotonicity_grid():
    model = curved_model()
    assert monotonicity_audit(model, LEFT, grid=50)
    assert monotonicity_audit(model, RIGHT, grid=50)

    def bad(r, s):
        return (r - 0.5) ** 2 + s

    broken = ml.custom_model("broken", bad, bad, ratio_low=1.0, slope_cap=1.0)
    assert not monotonicity_audit(broken, LEFT)


@pytest.mark.parametrize("model", [ml.linear_model(0.3), ml.linear_model(0.8), curved_model()],
                         ids=["linear-0.3", "linear-0.8", "curved"])
def test_utility_into_out_equals_allocating_call(model):
    rating = np.array([[0.0, 0.25, 1.0, 0.5, -0.0]])
    score = np.array([[0.5, np.nan, -0.0, 0.0, 1.0],
                      [-0.0, 0.75, np.nan, 1.0, 0.0]])
    for side in (LEFT, RIGHT):
        want = model.utility(side, rating, score)
        block = np.full(score.shape, 7.0)
        assert model.utility(side, rating, score, out=block) is block
        assert block.tobytes() == np.asarray(want).tobytes()


def test_rank_order_examples():
    assert rank_order([0.2, 0.9, 0.5]).tolist() == [1, 2, 0]
    assert rank_order([0.5, 0.5]).tolist() == [0, 1]


@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=200))
def test_rank_order_round_trip(ratings):
    order = rank_order(ratings)
    assert sorted(order.tolist()) == list(range(len(ratings)))
    inverse = np.empty(len(ratings), dtype=int)
    inverse[order] = np.arange(len(ratings))
    assert (order[inverse] == np.arange(len(ratings))).all()
    sorted_ratings = np.asarray(ratings)[order]
    assert (np.diff(sorted_ratings) <= 0).all()


def test_aligned_rank_one_to_one_identity():
    m = ml.generate_market(100, 100, model=ml.linear_model(0.5), seed=6)
    for side, other in ((LEFT, RIGHT), (RIGHT, LEFT)):
        agent = m.rank_to_agent(side)[6]
        assert m.aligned_ratings(side)[agent] == m.ratings(other)[m.rank_to_agent(other)[6]]


def test_aligned_rank_capacity_weighted():
    m = ml.generate_market(2000, 250, cap_right=8, model=ml.linear_model(0.5), seed=22)
    workers, companies = m.rank_to_agent(LEFT), m.rank_to_agent(RIGHT)
    # company rank 3, 8 positions each -> worker rank 24 (1-based), 23 zero-based
    assert m.aligned_ratings(RIGHT)[companies[2]] == m.ratings_left[workers[23]]
    # worker rank 17 -> company rank ceil(17/8) = 3
    assert m.aligned_ratings(LEFT)[workers[16]] == m.ratings_right[companies[2]]
    # overflow past the other side's end
    short = ml.generate_market(1999, 250, cap_right=8, model=ml.linear_model(0.5), seed=22)
    assert np.isnan(short.aligned_ratings(RIGHT)[short.rank_to_agent(RIGHT)[249]])
    assert not np.isnan(short.aligned_ratings(RIGHT)[short.rank_to_agent(RIGHT)[248]])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 8), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
def test_aligned_rank_matches_ceiling_formula(n_left, n_right, cap_left, cap_right, seed):
    # rank r (0-based) aligns with 1-based rank ceil(cap_own (r + 1) / cap_other)
    # on the other side, and with no one past that side's end
    m = ml.generate_market(n_left, n_right, cap_left, cap_right, model=ml.linear_model(0.5),
                           seed=seed)
    for side, other in ((LEFT, RIGHT), (RIGHT, LEFT)):
        want = np.full(m.n(side), np.nan)
        for agent, rank in enumerate(m.agent_rank(side).tolist()):
            target = math.ceil(m.cap(side) * (rank + 1) / m.cap(other))
            if target <= m.n(other):
                want[agent] = m.ratings(other)[m.rank_to_agent(other)[target - 1]]
        assert np.array_equal(m.aligned_ratings(side), want, equal_nan=True)


def test_generate_minimal_market():
    m = ml.generate_market(1, 1, model=ml.linear_model(0.5), seed=3)
    assert 0.0 <= m.ratings_left[0] <= 1.0
    assert 0.0 <= m.scores(RIGHT)[0, 0] <= 1.0


def test_generate_determinism():
    a = ml.generate_market(40, 40, model=ml.linear_model(0.8), seed=99)
    b = ml.generate_market(40, 40, model=ml.linear_model(0.8), seed=99)
    assert np.array_equal(a.scores(LEFT), b.scores(LEFT))
    assert np.array_equal(a.scores(RIGHT), b.scores(RIGHT))
    assert np.array_equal(a.ratings_left, b.ratings_left)
    c = ml.generate_market(40, 40, model=ml.linear_model(0.8), seed=100)
    assert not np.array_equal(a.scores(LEFT), c.scores(LEFT))


def test_score_streams_independent_of_order():
    # drawing one agent's row in isolation reproduces the matrix row
    from matchlab.market import stream_rng

    m = ml.generate_market(20, 15, model=ml.linear_model(0.5), seed=77)
    for i in (0, 7, 19):
        row = stream_rng(77, 2, i).random(15)
        assert np.array_equal(row, m.scores(LEFT)[i])
    for j in (14, 3):
        row = stream_rng(77, 3, j).random(20)
        assert np.array_equal(row, m.scores(RIGHT)[j])


def test_generated_market_holds_no_score_matrix(tmp_path):
    # each block of score rows is drawn into the utility rows it becomes, in
    # a generated market and in one loaded from its file; tracemalloc sees
    # numpy's buffers
    n = 1000
    path = tmp_path / "m.npz"
    ml.save_market(ml.generate_market(n, n, model=ml.linear_model(0.8), seed=7), path)
    left, _ = serial_score_rows(7, n, n)
    for make in (lambda: ml.generate_market(n, n, model=ml.linear_model(0.8), seed=7),
                 lambda: ml.load_market(path)):
        tracemalloc.start()
        try:
            m = make()
            _, generate_peak = tracemalloc.get_traced_memory()
            for side in (LEFT, RIGHT):
                m.utility_matrix(side)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert generate_peak < n * n * 8
        assert peak < 2 * n * n * 8 + 2 * 2**20
        # scores are redrawn on every call, never cached
        first, second = m.scores(LEFT), m.scores(LEFT)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == second.tobytes() == left.tobytes()


def test_market_refuses_incomplete_scores():
    # a market takes no scores: it draws them from its seed, which it needs
    m = ml.generate_market(4, 3, model=ml.linear_model(0.5), seed=2)
    base = dict(n_left=4, n_right=3, cap_left=1, cap_right=1, ratings_left=m.ratings_left,
                ratings_right=m.ratings_right, model=m.model)
    with pytest.raises(TypeError, match="seed must be a non-negative integer, got None"):
        ml.Market(**base, seed=None)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        ml.Market(**base, seed=-1)
    with pytest.raises(TypeError, match="scores_left"):
        ml.Market(**base, seed=2, scores_left=m.scores(LEFT))
    for name in ("scores_left", "scores_right"):
        with pytest.raises(AttributeError):
            getattr(m, name)


@pytest.mark.parametrize("n_left,n_right,cap_right", [
    (1, 1, 1), (3, 3, 1), (3, 1, 3), (5, 3, 1),
    # more rows than one block of the threaded fill, and not a multiple of it
    (2 * _BLOCK_ROWS + 1, 7, 1), (40, 2 * _BLOCK_ROWS + 3, 1),
    (8 * _BLOCK_ROWS + _BLOCK_ROWS + 1, 5, 1),
])
def test_scores_equal_serial_row_draws(n_left, n_right, cap_right):
    m = ml.generate_market(n_left, n_right, cap_right=cap_right, model=ml.linear_model(0.5), seed=41)
    left, right = serial_score_rows(41, n_left, n_right)
    assert m.scores(LEFT).tobytes() == left.tobytes()
    assert m.scores(RIGHT).tobytes() == right.tobytes()


def tied_model():
    # coarse steps make exact ties
    def u(r, s):
        return np.floor(4.0 * (r + s)) / 4.0

    return ml.custom_model("tied", u, u, ratio_low=1.0, slope_cap=1.0)


def pooled_outputs(m):
    """Bytes of every pass that runs through `_map_blocks`, on market `m`."""
    out = [m.scores(LEFT).tobytes(), m.scores(RIGHT).tobytes()]
    for side in (LEFT, RIGHT):
        u = m.utility_matrix(side)
        order = m.preference_order(side)
        assert np.array_equal(order, np.argsort(-u, axis=1, kind="stable"))
        out += [u.tobytes(), m.best_utility(side).tobytes(), order.tobytes()]
    # a matching that many edges block, so the audit has blocks to report
    k = min(m.n_left, m.n_right)
    shifted = ml.Matching(np.column_stack((np.arange(k), (np.arange(k) + 1) % m.n_right)),
                          m.n_left, m.n_right)
    for matching in (ml.run_da(m, LEFT), ml.run_da(m, RIGHT), shifted):
        out += [matching.edges.flat.tobytes(), repr(ml.verify_stability(m, None, matching))]
    return out + [ml.acceptable_edges(m, 0.3, 0.2, 0.1, 0.0).flat.tobytes()]


@pytest.mark.parametrize("model", [ml.linear_model(0.5), tied_model()], ids=["linear", "tied"])
@pytest.mark.parametrize("n_left,n_right", [(1, B + 1), (B - 1, 2 * B + 1), (B, 1), (B + 1, B),
                                            (2 * B + 1, B - 1)])
def test_pooled_output_does_not_depend_on_worker_count(monkeypatch, n_left, n_right, model):
    by_workers = []
    for cpus in (1, 2):
        monkeypatch.setattr(market_module, "_usable_cpus", lambda: cpus)
        by_workers.append(pooled_outputs(ml.generate_market(n_left, n_right, model=model, seed=43)))
    assert by_workers[0] == by_workers[1]


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 12345]),
                      st.integers(0, 2**200)),
       label=st.integers(0, 5),
       rows=st.lists(st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
                     min_size=1, max_size=8))
def test_philox_keys_equal_seed_sequence(seed, label, rows):
    want = [np.random.SeedSequence(entropy=seed, spawn_key=(label, r)).generate_state(2, np.uint64)
            for r in rows]
    assert np.array_equal(_philox_keys(seed, label, np.array(rows)), np.array(want))


@pytest.mark.parametrize("seed,error", [(-1, ValueError), (1.5, TypeError), (-(2**70), ValueError)])
def test_philox_keys_refuse_what_seed_sequence_refuses(seed, error):
    with pytest.raises(error):
        np.random.SeedSequence(entropy=seed, spawn_key=(2, 0))
    with pytest.raises(error):
        _philox_keys(seed, 2, np.arange(3))


def test_generate_refuses_negative_seed():
    with pytest.raises(ValueError):
        ml.generate_market(3, 3, model=ml.linear_model(0.5), seed=-1)


def counted_threads(monkeypatch) -> list:
    """The list that every helper thread `_map_blocks` starts from here on is
    added to."""
    threads = []

    class CountingThread(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(market_module.threading, "Thread", CountingThread)
    return threads


@pytest.mark.parametrize("call", [
    # a generated market draws its score rows in its first utility fill
    lambda m: ml.generate_market(2 * B + 1, B + 2, model=ml.linear_model(0.5),
                                 seed=42).utility_matrix(LEFT),
    lambda m: m.scores(RIGHT),
    lambda m: preference_argsort(m.utility_matrix(LEFT)),
    lambda m: ml.run_da(m, RIGHT),
    lambda m: ml.verify_stability(m, None, ml.Matching(np.empty((0, 2)), m.n_left, m.n_right)),
], ids=["generate_market", "scores", "preference_argsort", "run_da", "verify_stability"])
def test_pooled_calls_leave_no_thread_running(monkeypatch, call):
    m = ml.generate_market(2 * B + 1, B + 2, model=ml.linear_model(0.5), seed=42)
    for side in (LEFT, RIGHT):  # so the call's own pass is what starts threads
        m.utility_matrix(side)
    monkeypatch.setattr(market_module, "_usable_cpus", lambda: 2)
    threads = counted_threads(monkeypatch)
    before = threading.active_count()
    call(m)
    assert threads  # the call did run blocks on a helper thread
    assert threading.active_count() == before


def poisoned_model(m, side, cells):
    """A linear-like custom model that gives `side`'s utility `value` at
    each (agent, partner, value) of `cells`, found by the score that `m`,
    drawn from the same seed, holds there."""
    scores = m.scores(side)
    bad = {scores[i, j]: value for i, j, value in cells}

    def poisoned(r, s):
        u = 0.5 * r + 0.5 * s
        for score, value in bad.items():
            u = np.where(s == score, value, u)
        return u

    def plain(r, s):
        return 0.5 * r + 0.5 * s

    fns = (poisoned, plain) if side == LEFT else (plain, poisoned)
    return ml.custom_model("poisoned", *fns, ratio_low=1.0, slope_cap=0.5)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("side,cells,first", [
    (LEFT, [(3, 5, np.nan)], "left agent 3 a non-finite utility (nan) for partner 5"),
    # the first block that fails is the one reported, whichever thread ran it
    (RIGHT, [(2 * B + 3, 1, -np.inf), (B + 6, 9, np.inf)],
     f"right agent {B + 6} a non-finite utility (inf) for partner 9"),
    (LEFT, [(B + 1, 4, -np.inf)], f"left agent {B + 1} a non-finite utility (-inf) for partner 4"),
], ids=["nan-first-block", "inf-past-first-block", "neg-inf-past-first-block"])
def test_utility_fill_refuses_non_finite_values(monkeypatch, cpus, side, cells, first):
    n_left, n_right = 3 * B, 2 * B + 9
    drawn = ml.generate_market(n_left, n_right, model=ml.linear_model(0.5), seed=47)
    m = ml.generate_market(n_left, n_right, model=poisoned_model(drawn, side, cells), seed=47)
    monkeypatch.setattr(market_module, "_usable_cpus", lambda: cpus)
    threads = counted_threads(monkeypatch)
    before = threading.active_count()
    message = "utility model {'kind': 'custom', 'name': 'poisoned'} gives " + first
    for call in (m.utility_matrix, lambda s: ml.run_da(m, ml.other_side(s))):
        with pytest.raises(ValueError, match=re.escape(message) + "; utilities must be finite"):
            call(side)
    assert bool(threads) == (cpus == 2)  # the refusals came back from threaded passes
    assert threading.active_count() == before
    m.utility_matrix(ml.other_side(side))  # the other side is finite


def test_process_pool_workers_run_blocks_inline():
    # --jobs workers share the CPUs with each other, so each runs one thread
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(market_module._usable_cpus).result(timeout=60) == 1


def test_one_place_constructs_a_thread():
    # every threaded pass goes through market._map_blocks, and none uses a pool
    sites = []
    for path in sorted(Path(market_module.__file__).parent.glob("*.py")):
        source = path.read_text()
        assert "ThreadPoolExecutor" not in source, path.name
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call) and "Thread" in
                    (getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                sites.append((path.name, node.lineno))
    body, first = inspect.getsourcelines(market_module._map_blocks)
    assert [name for name, _ in sites] == ["market.py"]
    assert first <= sites[0][1] < first + len(body)


def test_one_helper_orders_every_preference_list(monkeypatch):
    # full and restricted lists, from either side, are sorted by
    # market._descending, and the restricted path sorts nothing itself
    assert engine._descending is market_module._descending
    sort, calls = market_module._descending, []

    def counted(values, cols, n_cols, out, rows=None):
        calls.append(rows is not None)
        sort(values, cols, n_cols, out, rows)

    for module in (market_module, engine):
        monkeypatch.setattr(module, "_descending", counted)
    for side in (LEFT, RIGHT):
        for restricted in (False, True):
            market = ml.generate_market(2 * B + 3, 2 * B + 1, model=ml.linear_model(0.8), seed=4)
            edges = ml.acceptable_edges(market, 0.3, 0.3) if restricted else None
            assert edges is None or 0 < edges.flat.size < market.n_left * market.n_right
            calls.clear()
            ml.run_da(market, side, edges)
            assert calls and set(calls) == {restricted}, (side, restricted)
    body = ast.parse(inspect.getsource(engine._candidate_lists).strip())
    sorts = [node.func.attr for node in ast.walk(body) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) in ("sort", "argsort", "lexsort")]
    assert sorts == []


def test_map_blocks_returns_block_order_when_blocks_take_uneven_times(monkeypatch):
    monkeypatch.setattr(market_module, "_usable_cpus", lambda: 2)
    ran_on = set()

    def fn(lo):
        ran_on.add(threading.get_ident())
        if lo // B % 2 == 0:
            time.sleep(0.002)
        return lo

    n_rows = 9 * B + 5
    assert market_module._map_blocks(fn, n_rows) == list(range(0, n_rows, B))
    assert len(ran_on) == 2  # the caller and its helper both ran blocks


def test_map_blocks_raises_the_lowest_failing_block(monkeypatch):
    monkeypatch.setattr(market_module, "_usable_cpus", lambda: 2)
    threads = counted_threads(monkeypatch)
    before = threading.active_count()

    def fn(lo):
        block = lo // B
        if block == 1:
            time.sleep(0.005)  # block 3 fails first in time
        if block in (1, 3):
            raise ValueError(f"block {block}")
        return block

    for _ in range(20):
        with pytest.raises(ValueError, match="^block 1$"):
            market_module._map_blocks(fn, 6 * B)
    assert len(threads) == 20
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus,n_rows", [(2, B), (2, 1), (2, 0), (1, 5 * B)],
                         ids=["one-block", "one-row", "no-rows", "one-cpu"])
def test_map_blocks_inline_starts_no_thread(monkeypatch, cpus, n_rows):
    monkeypatch.setattr(market_module, "_usable_cpus", lambda: cpus)
    threads = counted_threads(monkeypatch)
    caller = threading.get_ident()
    ran_on = set()

    def fn(lo):
        ran_on.add(threading.get_ident())
        return lo

    assert market_module._map_blocks(fn, n_rows) == list(range(0, n_rows, B))
    assert threads == []
    assert ran_on <= {caller}


def test_marginal_uniformity_ks():
    m = ml.generate_market(400, 250, model=ml.linear_model(0.5), seed=5, rating_ranges="unit")
    draws = np.sort(m.scores(LEFT).ravel())
    n = draws.size
    grid = np.arange(1, n + 1) / n
    ks = max(np.abs(grid - draws).max(), np.abs(draws - (np.arange(n) / n)).max())
    assert n >= 10**5
    assert ks < 0.01


def test_capacity_and_size_validation():
    with pytest.raises(ValueError):
        ml.generate_market(0, 5, model=ml.linear_model(0.5), seed=1)
    with pytest.raises(ValueError):
        ml.generate_market(5, 5, cap_left=0, model=ml.linear_model(0.5), seed=1)


def test_generate_refuses_market_larger_than_memory():
    # 4 dense 200000 x 200000 float64 matrices need 1192 GiB; refused before
    # any array is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"needs about 1192\.1 GiB .* than the [0-9.]+ GiB of physical memory"):
            ml.generate_market(200_000, 200_000, model=ml.linear_model(0.5), seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_capacity_balance_flag():
    m = ml.generate_market(16, 2, cap_right=8, model=ml.linear_model(0.5), seed=1)
    assert m.capacity_balanced
    m2 = ml.generate_market(17, 2, cap_right=8, model=ml.linear_model(0.5), seed=1)
    assert not m2.capacity_balanced


def test_unbalanced_rating_ranges():
    m = ml.generate_market(300, 200, model=ml.linear_model(0.5), seed=8)
    assert m.rating_range_left == (0.0, 1.5)
    assert m.rating_range_right == (0.5, 1.5)
    assert m.ratings_left.min() >= 0.0 and m.ratings_left.max() <= 1.5
    assert m.ratings_right.min() >= 0.5 and m.ratings_right.max() <= 1.5
    # many-to-one defaults to unit ranges
    m2 = ml.generate_market(160, 20, cap_right=8, model=ml.linear_model(0.5), seed=8)
    assert m2.rating_range_left == (0.0, 1.0) and m2.rating_range_right == (0.0, 1.0)
    # forcing the scaled variant
    m3 = ml.generate_market(300, 200, model=ml.linear_model(0.5), seed=8, rating_ranges="unit")
    assert m3.rating_range_left == (0.0, 1.0)


def test_market_aligned_agents():
    m = ml.generate_market(16, 2, cap_right=8, model=ml.linear_model(0.5), seed=21)
    top_company = int(m.rank_to_agent(RIGHT)[0])
    worker_8 = int(m.rank_to_agent(LEFT)[7])  # worker of rank 8
    assert m.aligned_ratings(RIGHT)[top_company] == m.ratings_left[worker_8]
    worker_9 = int(m.rank_to_agent(LEFT)[8])  # rank 9 -> company ceil(9/8) = 2
    assert m.aligned_ratings(LEFT)[worker_9] == m.ratings_right[m.rank_to_agent(RIGHT)[1]]


def test_save_load_round_trip(tmp_path):
    m = ml.generate_market(30, 25, cap_right=2, model=ml.linear_model(0.7), seed=123)
    path = tmp_path / "market.npz"
    ml.save_market(m, path)
    loaded = ml.load_market(path)
    assert np.array_equal(loaded.scores(LEFT), m.scores(LEFT))
    assert np.array_equal(loaded.scores(RIGHT), m.scores(RIGHT))
    assert np.array_equal(loaded.ratings_left, m.ratings_left)
    assert loaded.model.weight == m.model.weight
    assert loaded.seed == m.seed
    assert loaded.cap_right == 2
    assert loaded.rating_range_left == m.rating_range_left


def test_saved_market_holds_no_score_array(tmp_path):
    path = tmp_path / "m.npz"
    ml.save_market(ml.generate_market(300, 300, model=ml.linear_model(0.8), seed=5), path)
    assert path.stat().st_size < 16 * 1024
    with np.load(path) as data:
        assert sorted(data.files) == ["meta", "ratings_left", "ratings_right"]


def test_old_market_file_loads_only_with_its_seeds_scores(tmp_path):
    # files once held both score matrices; they load when those equal the seed's draws
    m = ml.generate_market(30, 25, cap_right=2, model=ml.linear_model(0.7), seed=123)
    new, old = tmp_path / "new.npz", tmp_path / "old.npz"
    ml.save_market(m, new)
    scores = {"scores_left": m.scores(LEFT), "scores_right": m.scores(RIGHT)}
    rewrite_market_file(new, old, scores)
    loaded = ml.load_market(old)
    assert loaded.seed == 123 and np.array_equal(loaded.ratings_left, m.ratings_left)
    for side in (LEFT, RIGHT):
        assert loaded.scores(side).tobytes() == m.scores(side).tobytes()
    for key in scores:
        changed = {**scores, key: scores[key].copy()}
        changed[key][3, 4] = np.nextafter(changed[key][3, 4], 2.0)
        rewrite_market_file(new, old, changed)
        with pytest.raises(ValueError, match=f"{key} differs from the scores that seed 123 draws"):
            ml.load_market(old)
    rewrite_market_file(new, old, {**scores, "scores_right": scores["scores_right"][:, :-1]})
    with pytest.raises(ValueError, match="scores_right differs"):
        ml.load_market(old)


def test_load_market_refuses_seedless_or_oversized_file(tmp_path):
    new, bad = tmp_path / "new.npz", tmp_path / "bad.npz"
    ml.save_market(ml.generate_market(4, 4, model=ml.linear_model(0.5), seed=1), new)
    for seed in (None, "1", 1.5):
        rewrite_market_file(new, bad, seed=seed)
        with pytest.raises(ValueError, match="records no integer seed"):
            ml.load_market(bad)
    rewrite_market_file(new, bad, seed=-1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        ml.load_market(bad)
    # a file of a few KB names any size: refused before any array is read
    n = 100_000
    rewrite_market_file(new, bad, {"ratings_left": np.full(n, 0.5), "ratings_right": np.full(n, 0.5)},
                        n_left=n, n_right=n)
    with pytest.raises(ValueError, match="of physical memory"):
        ml.load_market(bad)


def test_save_is_byte_deterministic(tmp_path):
    m = ml.generate_market(20, 20, model=ml.linear_model(0.6), seed=4)
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    ml.save_market(m, p1)
    ml.save_market(m, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_custom_model_round_trip_requires_registry(tmp_path):
    model = curved_model()
    m = ml.generate_market(5, 5, model=model, seed=1)
    path = tmp_path / "m.npz"
    ml.save_market(m, path)
    ml.MODEL_REGISTRY.pop("curved", None)
    with pytest.raises(KeyError):
        ml.load_market(path)
    ml.register_model(model)
    try:
        loaded = ml.load_market(path)
        assert loaded.model is model
    finally:
        ml.MODEL_REGISTRY.pop("curved", None)


def test_utility_monotone_for_generated_models():
    for weight in (0.5, 0.8, 0.999):
        assert monotonicity_audit(ml.linear_model(weight), LEFT)


def test_utility_extended_linear_consistency():
    # the below-zero rating extension, as truncation reads it: for a linear
    # model, the bits of the linear formula, below zero too
    for market in (ml.generate_market(40, 40, model=ml.linear_model(0.8), seed=3),
                   ml.generate_market(40, 20, model=ml.linear_model(0.3), seed=3)):
        w = market.model.weight
        for side in (LEFT, RIGHT):
            aligned = market.aligned_ratings(side)
            bench = ml.benchmark_vector(market, side)
            for shift in (0.0, 0.25, 0.5, 1.0, 2.5):
                want = bench - (w * (aligned - shift) + (1 - w))
                got = _truncation_thresholds(market, side, shift)
                assert np.array_equal(got, want, equal_nan=True)
            assert (aligned - 2.5 < 0).any() and (aligned - 0.25 >= 0).any()
    # a custom model: continuous at zero and sloped by slope_floor below it
    market = ml.generate_market(5, 5, model=curved_model(), seed=3)
    a = market.aligned_ratings(LEFT)[0]
    bench = ml.benchmark_vector(market, LEFT)[0]
    at_zero = bench - _truncation_thresholds(market, LEFT, a)[0]
    below = bench - _truncation_thresholds(market, LEFT, a + 0.1)[0]
    assert at_zero == pytest.approx(float(curved_model().utility(LEFT, 0.0, 1.0)))
    assert below == pytest.approx(at_zero - 0.1 * 0.4)


@pytest.mark.parametrize("settings_", [{"fn_left": abs}, {"fn_right": abs}, {"slope_cap": 3.0},
                                       {"ratio_low": 1.0}, {"slope_floor": 0.5}, {"name": "x"}],
                         ids=["fn_left", "fn_right", "slope_cap", "ratio_low", "slope_floor", "name"])
def test_linear_model_refuses_custom_settings(settings_):
    with pytest.raises(TypeError):
        LinearModel(0.5, **settings_)


def test_custom_model_has_no_weight():
    assert not hasattr(curved_model(), "weight")
    with pytest.raises(TypeError):
        ml.custom_model("x", abs, abs, ratio_low=1.0, slope_cap=1.0, weight=0.5)


@pytest.mark.parametrize("missing", ["fn_left", "fn_right", "ratio_low", "slope_cap"])
def test_custom_model_refuses_missing_callable_or_bound(missing):
    args = {"fn_left": abs, "fn_right": abs, "ratio_low": 1.0, "slope_cap": 1.0, missing: None}
    with pytest.raises(ValueError):
        ml.custom_model("x", **args)


def test_saved_model_meta_is_unchanged(tmp_path):
    # the meta strings as market files wrote them while one model class
    # held both kinds
    def meta(market):
        ml.save_market(market, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as data:
            return bytes(data["meta"]).decode("utf-8")

    linear = ml.generate_market(30, 25, cap_right=2, model=ml.linear_model(0.7), seed=123)
    assert meta(linear) == (
        '{"cap_left": 1, "cap_right": 2, "model": {"kind": "linear", "weight": 0.7}, "n_left": 30, '
        '"n_right": 25, "rating_range_left": [0.0, 1.0], "rating_range_right": [0.0, 1.0], "seed": 123}')
    custom = ml.register_model(curved_model())
    try:
        assert meta(ml.generate_market(5, 5, model=custom, seed=1)) == (
            '{"cap_left": 1, "cap_right": 1, "model": {"kind": "custom", "name": "curved"}, '
            '"n_left": 5, "n_right": 5, "rating_range_left": [0.0, 1.0], '
            '"rating_range_right": [0.0, 1.0], "seed": 1}')
    finally:
        ml.MODEL_REGISTRY.pop("curved", None)


def test_hypothesis_prints_a_market_by_its_repr():
    # through its init fields, each an attribute
    text = pretty(ml.generate_market(3, 3, model=ml.linear_model(0.5), seed=1))
    assert text.startswith("Market(n_left=3,") and "seed=1" in text


@settings(max_examples=200, deadline=None)
@given(arrays(float, st.tuples(st.integers(0, 12), st.integers(0, 12)),
              elements=st.sampled_from([0.0, -0.0, 0.5, 1.0, np.inf, -np.inf])))
def test_preference_argsort_equals_stable_argsort(u):
    assert np.array_equal(preference_argsort(u), np.argsort(-u, axis=1, kind="stable"))


def test_preference_argsort_across_row_blocks():
    # more rows than one sort block; some rows tie, most are distinct
    rng = np.random.default_rng(3)
    u = rng.random((700, 50))
    u[::7] = np.round(u[::7] * 4) / 4
    assert np.array_equal(preference_argsort(u), np.argsort(-u, axis=1, kind="stable"))
    m = ml.generate_market(300, 40, model=ml.linear_model(0.8), seed=4)
    for side in (LEFT, RIGHT):
        want = np.argsort(-m.utility_matrix(side), axis=1, kind="stable")
        assert np.array_equal(m.preference_order(side), want)


# values whose float64 bits differ only in the lowest bits, so their packed
# sort keys collide once the column index replaces those bits: each base and
# its three nearest neighbours on both sides
_NEIGHBOUR_BASES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.7, -0.7, 1.0,
                    -3.5, 1e300, np.inf, -np.inf)


def _neighbours(x: float) -> list[float]:
    out = [x]
    for toward in (np.inf, -np.inf):
        y = x
        for _ in range(3):
            y = float(np.nextafter(y, toward))
            out.append(y)
    return out


@st.composite
def colliding_rows(draw):
    """1 to 3 rows of 1 to 300 columns, so the column index takes 1 to 9
    bits, drawn from a few bases' nextafter neighbours."""
    bases = draw(st.lists(st.sampled_from(_NEIGHBOUR_BASES), min_size=1, max_size=3))
    pool = [v for b in bases for v in _neighbours(b)]
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 300)))
    return draw(arrays(float, shape, elements=st.sampled_from(pool)))


@settings(max_examples=300, deadline=None)
@given(colliding_rows())
def test_preference_argsort_redoes_colliding_packed_keys(u):
    assert np.array_equal(preference_argsort(u), np.argsort(-u, axis=1, kind="stable"))


@pytest.mark.parametrize("shape,dtype", [((2, 0), np.int8), ((2, 128), np.int8),
                                         ((2, 129), np.int16), ((2, 32768), np.int16),
                                         ((2, 32769), np.int32)])
def test_preference_argsort_takes_smallest_signed_dtype(shape, dtype):
    u = np.round(np.random.default_rng(shape[1]).random(shape) * 64) / 64  # ties in every row
    got = preference_argsort(u)
    assert got.dtype == dtype
    assert np.array_equal(got, np.argsort(-u, axis=1, kind="stable"))


def test_full_list_da_peak_below_one_dense_matrix():
    # with the utilities cached, DA's one n x n array is its int16 preference
    # table (2 bytes a cell); tracemalloc sees numpy's buffers
    n = 1000
    m = ml.generate_market(n, n, model=ml.linear_model(0.8), seed=8)
    for side in (LEFT, RIGHT):
        m.utility_matrix(side)
    tracemalloc.start()
    try:
        ml.run_da(m, LEFT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_full_list_da_leaves_no_preference_matrix_on_market():
    # DA reads each side's full lists once, so the market keeps no n x n
    # integer preference order; the utility matrices it reads stay cached
    m = ml.generate_market(50, 40, model=ml.linear_model(0.8), seed=6)
    for side in (LEFT, RIGHT):
        ml.run_da(m, side)
    held = [a for value in vars(m).values()
            for a in (value.values() if isinstance(value, dict) else (value,))
            if isinstance(a, np.ndarray)]
    assert not [a.shape for a in held if a.dtype.kind in "iu" and a.ndim == 2]
    for side in (LEFT, RIGHT):
        assert any(a is m.utility_matrix(side) for a in held)
