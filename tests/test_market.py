import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import matchlab as ml
from matchlab import market as market_module
from matchlab.market import (
    _BLOCK_ROWS,
    LEFT,
    RIGHT,
    _philox_keys,
    aligned_rank,
    preference_argsort,
    rank_order,
)

from conftest import serial_score_rows


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
    assert ml.monotonicity_audit(model, LEFT, grid=50)
    assert ml.monotonicity_audit(model, RIGHT, grid=50)

    def bad(r, s):
        return (r - 0.5) ** 2 + s

    broken = ml.custom_model("broken", bad, bad, ratio_low=1.0, slope_cap=1.0)
    assert not ml.monotonicity_audit(broken, LEFT)


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
    assert aligned_rank(6, 1, 1, 100) == 6


def test_aligned_rank_capacity_weighted():
    # company rank 3, 8 positions each -> worker rank 24 (1-based), 23 zero-based
    assert aligned_rank(2, 8, 1, 2000) == 23
    # worker rank 17 -> company rank ceil(17/8) = 3
    assert aligned_rank(16, 1, 8, 250) == 2
    # overflow past the other side's end
    assert aligned_rank(249, 8, 1, 1999) is None


@given(st.integers(0, 400), st.integers(1, 8), st.integers(1, 8))
def test_aligned_rank_matches_ceiling_formula(rank, cap_own, cap_other):
    import math

    target = math.ceil(cap_own * (rank + 1) / cap_other)
    got = aligned_rank(rank, cap_own, cap_other, n_other=10**9)
    assert got == target - 1


def test_generate_minimal_market():
    m = ml.generate_market(1, 1, model=ml.linear_model(0.5), seed=3)
    assert 0.0 <= m.ratings_left[0] <= 1.0
    assert 0.0 <= m.scores_right[0, 0] <= 1.0


def test_generate_determinism():
    a = ml.generate_market(40, 40, model=ml.linear_model(0.8), seed=99)
    b = ml.generate_market(40, 40, model=ml.linear_model(0.8), seed=99)
    assert np.array_equal(a.scores_left, b.scores_left)
    assert np.array_equal(a.scores_right, b.scores_right)
    assert np.array_equal(a.ratings_left, b.ratings_left)
    c = ml.generate_market(40, 40, model=ml.linear_model(0.8), seed=100)
    assert not np.array_equal(a.scores_left, c.scores_left)


def test_score_streams_independent_of_order():
    # drawing one agent's row in isolation reproduces the matrix row
    from matchlab.market import stream_rng

    m = ml.generate_market(20, 15, model=ml.linear_model(0.5), seed=77)
    for i in (0, 7, 19):
        row = stream_rng(77, 2, i).random(15)
        assert np.array_equal(row, m.scores_left[i])
    for j in (14, 3):
        row = stream_rng(77, 3, j).random(20)
        assert np.array_equal(row, m.scores_right[j])


@pytest.mark.parametrize("n_left,n_right,cap_right", [
    (1, 1, 1), (3, 3, 1), (3, 1, 3), (5, 3, 1),
    # more rows than one block of the threaded fill, and not a multiple of it
    (2 * _BLOCK_ROWS + 1, 7, 1), (40, 2 * _BLOCK_ROWS + 3, 1),
    (8 * _BLOCK_ROWS + _BLOCK_ROWS + 1, 5, 1),
])
def test_scores_equal_serial_row_draws(n_left, n_right, cap_right):
    m = ml.generate_market(n_left, n_right, cap_right=cap_right, model=ml.linear_model(0.5), seed=41)
    left, right = serial_score_rows(41, n_left, n_right)
    assert m.scores_left.tobytes() == left.tobytes()
    assert m.scores_right.tobytes() == right.tobytes()


def test_scores_do_not_depend_on_worker_count(monkeypatch):
    bytes_by_workers = []
    for cpus in (1, 2):
        monkeypatch.setattr(market_module, "_usable_cpus", lambda: cpus)
        m = ml.generate_market(3 * _BLOCK_ROWS + 5, 2 * _BLOCK_ROWS + 1, model=ml.linear_model(0.5), seed=43)
        bytes_by_workers.append((m.scores_left.tobytes(), m.scores_right.tobytes()))
    assert bytes_by_workers[0] == bytes_by_workers[1]


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


def test_generate_leaves_no_thread_running():
    before = threading.active_count()
    ml.generate_market(2 * _BLOCK_ROWS + 1, 30, model=ml.linear_model(0.5), seed=42)
    assert threading.active_count() == before


def test_marginal_uniformity_ks():
    m = ml.generate_market(400, 250, model=ml.linear_model(0.5), seed=5, rating_ranges="unit")
    draws = np.sort(m.scores_left.ravel())
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
    aligned = m.aligned_agent(RIGHT, top_company)
    assert aligned == int(m.rank_to_agent(LEFT)[7])  # worker of rank 8
    worker_17 = int(m.rank_to_agent(LEFT)[8])  # rank 9 -> company ceil(9/8) = 2
    assert m.aligned_agent(LEFT, worker_17) == int(m.rank_to_agent(RIGHT)[1])


def test_save_load_round_trip(tmp_path):
    m = ml.generate_market(30, 25, cap_right=2, model=ml.linear_model(0.7), seed=123)
    path = tmp_path / "market.npz"
    ml.save_market(m, path)
    loaded = ml.load_market(path)
    assert np.array_equal(loaded.scores_left, m.scores_left)
    assert np.array_equal(loaded.scores_right, m.scores_right)
    assert np.array_equal(loaded.ratings_left, m.ratings_left)
    assert loaded.model.weight == m.model.weight
    assert loaded.seed == m.seed
    assert loaded.cap_right == 2
    assert loaded.rating_range_left == m.rating_range_left


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
        assert ml.monotonicity_audit(ml.linear_model(weight), LEFT)


def test_utility_extended_linear_consistency():
    model = ml.linear_model(0.8)
    assert model.utility_extended(LEFT, -0.5, 1.0) == pytest.approx(0.8 * -0.5 + 0.2)
    curved = curved_model()
    # continuous at zero and sloped by slope_floor below it
    at_zero = float(curved.utility_extended(LEFT, 0.0, 1.0))
    below = float(curved.utility_extended(LEFT, -0.1, 1.0))
    assert below == pytest.approx(at_zero - 0.1 * 0.4)


@settings(max_examples=200, deadline=None)
@given(arrays(float, st.tuples(st.integers(0, 12), st.integers(0, 12)),
              elements=st.sampled_from([0.0, -0.0, 0.5, 1.0, np.nan, np.inf, -np.inf])))
def test_preference_argsort_equals_stable_argsort(u):
    assert np.array_equal(preference_argsort(u), np.argsort(-u, axis=1, kind="stable"))


def test_preference_argsort_across_row_blocks():
    # more rows than one sort block; some rows tie, some hold NaN, most are distinct
    rng = np.random.default_rng(3)
    u = rng.random((700, 50))
    u[::7] = np.round(u[::7] * 4) / 4
    u[5::11, ::3] = np.nan
    u[9] = np.nan
    assert np.array_equal(preference_argsort(u), np.argsort(-u, axis=1, kind="stable"))
    m = ml.generate_market(300, 40, model=ml.linear_model(0.8), seed=4)
    for side in (LEFT, RIGHT):
        want = np.argsort(-m.utility_matrix(side), axis=1, kind="stable")
        assert np.array_equal(m.preference_order(side), want)


def test_full_list_da_leaves_no_preference_matrix_on_market():
    # DA reads each side's full lists once, so the market keeps no n x n
    # int64 preference order; the utility matrices it reads stay cached
    m = ml.generate_market(50, 40, model=ml.linear_model(0.8), seed=6)
    for side in (LEFT, RIGHT):
        ml.run_da(m, side)
    held = [a for value in vars(m).values()
            for a in (value.values() if isinstance(value, dict) else (value,))
            if isinstance(a, np.ndarray)]
    assert not [a.shape for a in held if a.dtype == np.int64 and a.ndim == 2]
    for side in (LEFT, RIGHT):
        assert any(a is m.utility_matrix(side) for a in held)
