import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import matchlab as ml
from matchlab.engine import EdgeSet, double_cut_edges, worst_partner
from matchlab.market import LEFT, RIGHT

from conftest import (
    cyclic_three_market,
    exhaustive_max_matching,
    make_manual_market,
    reference_da,
)


def test_single_pair_market():
    m = ml.generate_market(1, 1, model=ml.linear_model(0.5), seed=1)
    matching = ml.run_da(m, LEFT)
    assert matching.pairs() == {(0, 0)}
    opt, pes = ml.extreme_matchings(m)
    assert opt.same_pairs(pes)


def test_empty_edge_set_yields_empty_matching():
    m = ml.generate_market(4, 4, model=ml.linear_model(0.5), seed=2)
    matching = ml.run_da(m, LEFT, EdgeSet.empty(4, 4))
    assert matching.pairs() == frozenset()
    assert matching.proposal_counts.sum() == 0


def test_da_output_is_stable(small_market):
    for side in (LEFT, RIGHT):
        matching = ml.run_da(small_market, side)
        assert ml.verify_stability(small_market, None, matching) == []


def test_da_stable_on_restricted_sets(small_market):
    rng = np.random.default_rng(0)
    for _ in range(5):
        edges = EdgeSet.from_mask(rng.random((30, 30)) < 0.4)
        matching = ml.run_da(small_market, LEFT, edges)
        assert ml.verify_stability(small_market, edges, matching) == []


def test_order_invariance(mid_market):
    # the proposals DA makes do not depend on the order proposers act in
    base = ml.run_da(mid_market, LEFT)
    for order_seed in (None, 1, 2, 3, 4):
        ref = reference_da(mid_market, LEFT, order_seed=order_seed)
        assert ref.same_pairs(base)
        assert np.array_equal(ref.proposal_counts, base.proposal_counts)


def assert_same_run(got, want):
    assert got.proposing_side == want.proposing_side
    assert np.array_equal(got.pair_array, want.pair_array)
    for side in (LEFT, RIGHT):
        assert got.matches(side) == want.matches(side)
    assert got.proposal_counts.tolist() == want.proposal_counts.tolist()


_GRID = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def da_cases(draw):
    """Hand-built markets on a coarse score grid, so utilities tie often."""
    nl, nr = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    market = make_manual_market(
        draw(arrays(float, (nl, nr), elements=_GRID)),
        draw(arrays(float, (nr, nl), elements=_GRID)),
        draw(arrays(float, nl, elements=_GRID)),
        draw(arrays(float, nr, elements=_GRID)),
        weight=draw(st.sampled_from([1e-9, 0.5, 0.8])),
        cap_left=draw(st.integers(1, 3)),
        cap_right=draw(st.integers(1, 3)),
    )
    mask = draw(st.none() | arrays(bool, (nl, nr)))
    edges = None if mask is None else EdgeSet.from_mask(mask)
    return market, draw(st.sampled_from([LEFT, RIGHT])), edges


@settings(max_examples=300, deadline=None)
@given(da_cases())
def test_kernel_matches_reference_with_ties(case):
    market, side, edges = case
    assert_same_run(ml.run_da(market, side, edges), reference_da(market, side, edges))


def loop_worst_partner(market, side, sets, spare_is_worst):
    """Per-agent reference for `worst_partner`: lowest utility, ties to the
    higher partner index; (-inf, n_other) for agents without one, and with
    `spare_is_worst` also for agents below capacity."""
    u = market.utility_matrix(side)
    sentinel = market.n(ml.other_side(side))
    out_u, out_j = [], []
    for a, partners in enumerate(sets):
        if not partners or (spare_is_worst and len(partners) < market.cap(side)):
            out_u.append(-np.inf)
            out_j.append(sentinel)
            continue
        j = min(partners, key=lambda p: (u[a, p], -p))
        out_u.append(u[a, j])
        out_j.append(j)
    return np.array(out_u), np.array(out_j)


@st.composite
def matching_cases(draw):
    """A `da_cases` market with a random capacity-respecting matching."""
    market, _, _ = draw(da_cases())
    want = draw(arrays(bool, (market.n_left, market.n_right)))
    sets = [[] for _ in range(market.n_left)]
    load = [0] * market.n_right
    for i, j in np.argwhere(want):
        if len(sets[i]) < market.cap_left and load[j] < market.cap_right:
            sets[i].append(int(j))
            load[j] += 1
    return market, sets


@settings(max_examples=100, deadline=None)
@given(matching_cases())
def test_matching_views_match_per_agent_loops(case):
    market, sets = case
    m = ml.Matching.from_left_sets(sets, market.n_right)
    assert ml.Matching.from_left_sets(m.matches(LEFT), market.n_right).same_pairs(m)
    assert m.pairs() == {(i, j) for i, ms in enumerate(sets) for j in ms}
    assert np.array_equal(EdgeSet.from_pairs(m.pairs(), market.n_left, market.n_right).pairs(),
                          m.pair_array)
    for side in (LEFT, RIGHT):
        tuples = m.matches(side)
        assert m.match_counts(side).tolist() == [len(t) for t in tuples]
        assert m.matched_mask(side).tolist() == [bool(t) for t in tuples]
        for spare_is_worst in (False, True):
            got_u, got_j = worst_partner(market, side, m, spare_is_worst)
            want_u, want_j = loop_worst_partner(market, side, tuples, spare_is_worst)
            assert np.array_equal(got_u, want_u) and np.array_equal(got_j, want_j)
        want = loop_worst_partner(market, side, tuples, False)[0]
        want[~m.matched_mask(side)] = np.nan
        assert np.array_equal(ml.achieved_utilities(market, m, side), want, equal_nan=True)


def test_edge_set_from_empty_pairs():
    assert EdgeSet.from_pairs([], 3, 4) == EdgeSet.empty(3, 4)


def test_edge_set_from_pairs_rejects_out_of_range_and_drops_duplicates():
    for bad in ([(0, -1), (1, 2)], [(-1, 0)], [(3, 0)], [(0, 4)]):
        with pytest.raises(ValueError):
            EdgeSet.from_pairs(bad, 3, 4)
    edges = EdgeSet.from_pairs([(1, 2), (0, 3), (1, 2)], 3, 4)
    assert edges.pairs().tolist() == [[0, 3], [1, 2]]
    assert edges.edge_count == 2


# shapes: empty sides, 1 x n and n x 1, and sizes around the 64-row block
EDGE_SHAPES = st.one_of(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.just(1), st.integers(1, 130)),
    st.tuples(st.integers(1, 130), st.just(1)),
    st.tuples(st.sampled_from([63, 64, 65, 127, 128, 129]), st.integers(1, 9)),
)


@st.composite
def mask_pairs(draw):
    """Two masks of one shape, each empty, full, sparse or dense."""
    shape = draw(EDGE_SHAPES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masks = []
    for kind in draw(st.tuples(*[st.sampled_from(["empty", "full", "sparse", "dense"])] * 2)):
        if kind in ("empty", "full"):
            masks.append(np.full(shape, kind == "full"))
        else:
            masks.append(rng.random(shape) < (0.1 if kind == "sparse" else 0.7))
    return masks[0], masks[1], rng


@settings(max_examples=200, deadline=None)
@given(mask_pairs())
def test_edge_set_operations_equal_dense_formulas(case):
    ma, mb, rng = case
    nl, nr = ma.shape
    a, b = EdgeSet.from_mask(ma), EdgeSet.from_mask(mb)
    assert (a.n_left, a.n_right) == (nl, nr)
    assert np.array_equal(a.mask, ma) and not a.flat.flags.writeable
    assert a == EdgeSet.from_pairs(np.argwhere(ma).tolist(), nl, nr)
    assert np.array_equal(a.pairs(), np.argwhere(ma))
    assert a.edge_count == np.count_nonzero(ma)
    assert np.array_equal(a.degrees(LEFT), ma.sum(axis=1))
    assert np.array_equal(a.degrees(RIGHT), ma.sum(axis=0))
    assert a.is_full() == ma.all()
    if ma.size:
        for i, j in zip(rng.integers(nl, size=10), rng.integers(nr, size=10)):
            assert a.contains(int(i), int(j)) == ma[i, j]
    assert np.array_equal((a & b).mask, ma & mb)
    assert np.array_equal((a | b).mask, ma | mb)
    assert a.issubset(b) == bool(np.all(~ma | mb))
    assert (a == b) == np.array_equal(ma, mb)
    for side, rows in ((LEFT, ma), (RIGHT, ma.T)):
        indptr, indices = a.csr(side)
        assert indptr[0] == 0 and np.array_equal(np.diff(indptr), rows.sum(axis=1))
        assert np.array_equal(indices, np.nonzero(rows)[1])


@pytest.mark.parametrize("consumer", ["run_da", "verify_stability", "viable_edges",
                                      "acceptable_entry_levels", "achieved_utilities",
                                      "verify_stability-matching", "loss_report"])
def test_edge_set_of_another_shape_rejected(small_market, consumer):
    m = small_market
    edges = EdgeSet.full(m.n_left, m.n_right - 1)
    # a stable matching of a smaller market
    other = ml.run_da(ml.generate_market(m.n_left, m.n_right - 1, model=m.model, seed=1), LEFT)
    call, kind = {
        "run_da": (lambda: ml.run_da(m, LEFT, edges), "edge set"),
        "verify_stability": (lambda: ml.verify_stability(m, edges, ml.run_da(m, LEFT)), "edge set"),
        "viable_edges": (lambda: ml.viable_edges(m, edges), "edge set"),
        "acceptable_entry_levels": (
            lambda: ml.acceptable_entry_levels(m, [0.1], [0.0], [0.0], edges), "edge set"),
        "achieved_utilities": (lambda: ml.achieved_utilities(m, other, LEFT), "matching"),
        "verify_stability-matching": (lambda: ml.verify_stability(m, None, other), "matching"),
        "loss_report": (lambda: ml.loss_report(m, other), "matching"),
    }[consumer]
    with pytest.raises(ValueError, match=f"{kind} shape 30x29 disagrees with 30x30"):
        call()


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 4), (1, 1), (5, 7), (70, 3)])
def test_edge_set_pairs_match_argwhere(shape):
    rng = np.random.default_rng(sum(shape))
    for mask in (rng.random(shape) < 0.4, np.zeros(shape, bool), np.ones(shape, bool)):
        got = EdgeSet.from_mask(mask).pairs()
        want = np.argwhere(mask)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("nl,nr,cap_l,cap_r,density", [
    (120, 120, 1, 1, None),
    (150, 90, 1, 1, None),
    (60, 150, 1, 1, 0.3),
    (200, 25, 1, 8, None),
    (200, 25, 1, 8, 0.2),
    (40, 70, 3, 2, None),
    (80, 50, 2, 3, 0.5),
])
def test_kernel_matches_reference_on_generated_markets(nl, nr, cap_l, cap_r, density):
    m = ml.generate_market(nl, nr, cap_l, cap_r, model=ml.linear_model(0.8), seed=nl * nr)
    edges = None
    if density is not None:
        mask = np.random.default_rng(nl).random((nl, nr)) < density
        mask[0] = False
        mask[:, 1] = False
        edges = EdgeSet.from_mask(mask)
    for side in (LEFT, RIGHT):
        assert_same_run(ml.run_da(m, side, edges), reference_da(m, side, edges))


def test_matching_symmetry_and_capacity(small_market):
    matching = ml.run_da(small_market, LEFT)
    left, right = matching.matches(LEFT), matching.matches(RIGHT)
    for i, ms in enumerate(left):
        assert len(ms) <= small_market.cap_left
        for j in ms:
            assert i in right[j]
    for j, ms in enumerate(right):
        assert len(ms) <= small_market.cap_right


def test_capacitated_da_fills_and_respects_caps():
    m = ml.generate_market(80, 10, cap_right=8, model=ml.linear_model(0.8), seed=9)
    matching = ml.run_da(m, LEFT)
    assert ml.verify_stability(m, None, matching) == []
    assert matching.matched_mask(LEFT).all()
    assert (matching.match_counts(RIGHT) == 8).all()


def test_receiver_bumps_worst_held():
    # two proposers, one receiver slot: the better-scored proposer wins
    scores_r = np.array([[0.2, 0.9]])
    scores_l = np.array([[0.5], [0.5]])
    m = make_manual_market(scores_l, scores_r, weight=1e-9)
    matching = ml.run_da(m, LEFT)
    assert matching.pairs() == {(1, 0)}
    assert matching.proposal_counts.tolist() == [1, 1]


def test_proposal_counts_match_run(small_market):
    matching = ml.run_da(small_market, LEFT)
    assert (matching.proposal_counts >= 1).all()
    assert matching.proposal_counts.max() <= small_market.n_right


# --- double cuts ----------------------------------------------------------


def test_cut_spec_needs_something():
    with pytest.raises(ValueError):
        ml.CutSpec()


def test_vacuous_cut_equals_full(mid_market):
    cut = ml.CutSpec(rating_floor=0.0)
    assert ml.run_double_cut_da(mid_market, LEFT, cut).same_pairs(ml.run_da(mid_market, LEFT))
    # negative floors clamp to zero
    cut2 = ml.CutSpec(rating_floor=-3.0)
    assert ml.run_double_cut_da(mid_market, LEFT, cut2).same_pairs(ml.run_da(mid_market, LEFT))


def test_degenerate_floor_only_target_edges(mid_market):
    cut = ml.CutSpec(target=5, rating_floor=1.0)
    edges = double_cut_edges(mid_market, LEFT, cut)
    # every surviving edge is the edge to the target (or nothing survives)
    pairs = edges.pairs()
    assert all(j == 5 for _, j in pairs)
    matching = ml.run_double_cut_da(mid_market, LEFT, cut)
    assert matching.pairs() <= {(i, 5) for i in range(mid_market.n_left)}


def test_cut_truncates_each_list_at_target():
    scores_l = np.array([[0.9, 0.5, 0.1], [0.1, 0.9, 0.5], [0.5, 0.1, 0.9]])
    scores_r = np.full((3, 3), 0.5)
    m = make_manual_market(scores_l, scores_r)
    edges = double_cut_edges(m, LEFT, ml.CutSpec(target=1))
    # proposer 0 prefers 0 > 1 > 2: keeps 0 and 1; proposer 1 keeps only 1;
    # proposer 2 prefers 2 > 0 > 1: keeps all three
    assert set(map(tuple, edges.pairs())) == {(0, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 2)}


def test_target_out_of_range(mid_market):
    with pytest.raises(IndexError):
        ml.run_double_cut_da(mid_market, LEFT, ml.CutSpec(target=10**6))


def test_double_cut_dominance_sample():
    rng = np.random.default_rng(41)
    for _ in range(20):
        m = ml.generate_market(50, 50, model=ml.linear_model(0.5), seed=int(rng.integers(1 << 32)))
        target = int(rng.integers(50))
        alpha = float(rng.choice([0.05, 0.2, 0.6]))
        cut = ml.CutSpec(target=target, rating_floor=float(m.ratings_right[target]) - alpha)
        full = ml.achieved_utilities(m, ml.run_da(m, LEFT), RIGHT, unmatched=-np.inf)[target]
        cut_u = ml.achieved_utilities(m, ml.run_double_cut_da(m, LEFT, cut), RIGHT, unmatched=-np.inf)[target]
        assert full >= cut_u


# --- extremes and multiplicity ---------------------------------------------


def test_extreme_matchings_unmatched_sets_agree():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = ml.generate_market(60, 60, model=ml.linear_model(0.7), seed=int(rng.integers(1 << 32)))
        edges = EdgeSet.from_mask(rng.random((60, 60)) < 0.1)
        left_opt, right_opt = ml.extreme_matchings(m, edges)
        assert set(left_opt.unmatched(LEFT)) == set(right_opt.unmatched(LEFT))
        assert set(left_opt.unmatched(RIGHT)) == set(right_opt.unmatched(RIGHT))


def test_multi_stable_agents_unique_instance():
    # strongly assortative: rating dominates, unique stable matching
    m = ml.generate_market(40, 40, model=ml.linear_model(0.999), seed=31)
    left, right = ml.multi_stable_agents(m)
    assert left == frozenset() and right == frozenset()


def test_multi_stable_agents_cyclic_instance():
    m = cyclic_three_market()
    stable = ml.brute_force_stable_set(m)
    assert len(stable) == 3
    left, right = ml.multi_stable_agents(m)
    assert left == frozenset({0, 1, 2})
    assert right == frozenset({0, 1, 2})


def test_multi_stable_requires_one_to_one():
    m = ml.generate_market(8, 2, cap_right=4, model=ml.linear_model(0.5), seed=3)
    with pytest.raises(ValueError):
        ml.multi_stable_agents(m)


def test_multi_stable_agents_match_brute_force():
    rng = np.random.default_rng(61)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        m = ml.generate_market(n, n, model=ml.linear_model(0.6), seed=int(rng.integers(1 << 32)))
        stable = ml.brute_force_stable_set(m)
        left, right = ml.multi_stable_agents(m)
        expect_left = {i for i in range(n)
                       if len({s.partner(LEFT)[i] for s in stable}) > 1}
        expect_right = {j for j in range(n)
                        if len({s.partner(RIGHT)[j] for s in stable}) > 1}
        assert left == frozenset(expect_left)
        assert right == frozenset(expect_right)


# --- stability audit -------------------------------------------------------


def test_verify_stability_flags_swapped_pairs(mid_market):
    matching = ml.run_da(mid_market, LEFT)
    partner = matching.partner(LEFT)
    ul = mid_market.utility_matrix(LEFT)
    # swap two matched pairs so that both left agents prefer the other's partner
    found = None
    for i in range(mid_market.n_left):
        for k in range(i + 1, mid_market.n_left):
            ji, jk = partner[i], partner[k]
            if ji < 0 or jk < 0:
                continue
            if ul[i, jk] > ul[i, ji] and ul[k, ji] > ul[k, jk]:
                found = (i, k)
                break
        if found:
            break
    assert found is not None
    i, k = found
    sets = [list(s) for s in matching.matches(LEFT)]
    sets[i], sets[k] = [int(partner[k])], [int(partner[i])]
    swapped = ml.Matching.from_left_sets(sets, mid_market.n_right)
    assert len(ml.verify_stability(mid_market, None, swapped)) >= 1


def test_empty_matching_blocks_everywhere():
    m = ml.generate_market(6, 6, model=ml.linear_model(0.5), seed=12)
    empty = ml.Matching.from_left_sets([[] for _ in range(6)], 6)
    rng = np.random.default_rng(0)
    edges = EdgeSet.from_mask(rng.random((6, 6)) < 0.5)
    blocking = ml.verify_stability(m, edges, empty)
    assert sorted(blocking) == sorted(map(tuple, edges.pairs()))


def test_verify_stability_capacitated_under_capacity_blocks():
    # one company with two slots holding one worker: a spare slot plus a
    # mutually acceptable worker is a blocking pair
    scores_l = np.array([[0.9], [0.8]])
    scores_r = np.array([[0.5, 0.6]])
    m = make_manual_market(scores_l, scores_r, cap_right=2)
    partial = ml.Matching.from_left_sets([[0], []], 1)
    blocking = ml.verify_stability(m, None, partial)
    assert blocking == [(1, 0)]


# --- brute force oracle -----------------------------------------------------


def test_brute_force_guards():
    m = ml.generate_market(9, 9, model=ml.linear_model(0.5), seed=1)
    with pytest.raises(ValueError):
        ml.brute_force_stable_set(m)
    m2 = ml.generate_market(4, 2, cap_right=2, model=ml.linear_model(0.5), seed=1)
    with pytest.raises(ValueError):
        ml.brute_force_stable_set(m2)


def test_brute_force_single():
    m = ml.generate_market(1, 1, model=ml.linear_model(0.5), seed=6)
    stable = ml.brute_force_stable_set(m)
    assert len(stable) == 1 and stable[0].pairs() == {(0, 0)}


def test_brute_force_contains_da_outputs():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = ml.generate_market(3, 3, model=ml.linear_model(0.6), seed=int(rng.integers(1 << 32)))
        stable = ml.brute_force_stable_set(m)
        a, b = ml.extreme_matchings(m)
        assert any(a.same_pairs(s) for s in stable)
        assert any(b.same_pairs(s) for s in stable)


def test_brute_force_unmatched_invariance_restricted():
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = ml.generate_market(n, n, model=ml.linear_model(0.5), seed=int(rng.integers(1 << 32)))
        edges = EdgeSet.from_mask(rng.random((n, n)) < 0.6)
        stable = ml.brute_force_stable_set(m, edges)
        assert stable, "a stable matching always exists"
        unmatched = {tuple(sorted(s.unmatched(LEFT))) for s in stable}
        assert len(unmatched) == 1
        unmatched_r = {tuple(sorted(s.unmatched(RIGHT))) for s in stable}
        assert len(unmatched_r) == 1


# --- maximum matching -------------------------------------------------------


def test_max_matching_complete_and_empty():
    assert ml.max_bipartite_matching(EdgeSet.full(7, 7)) == 7
    assert ml.max_bipartite_matching(EdgeSet.full(3, 9)) == 3
    assert ml.max_bipartite_matching(EdgeSet.empty(5, 5)) == 0


def test_max_matching_against_exhaustive():
    rng = np.random.default_rng(37)
    for _ in range(150):
        nl = int(rng.integers(1, 9))
        nr = int(rng.integers(1, 9))
        mask = rng.random((nl, nr)) < float(rng.uniform(0.1, 0.9))
        assert ml.max_bipartite_matching(EdgeSet.from_mask(mask)) == exhaustive_max_matching(mask)
