import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import matchlab as ml
from matchlab import engine
from matchlab.engine import EdgeSet, double_cut_edges, worst_partner
from matchlab.market import LEFT, RIGHT

from conftest import (
    brute_force_stable_set,
    cyclic_three_market,
    exhaustive_max_matching,
    make_manual_market,
    mask,
    reference_da,
)


def test_single_pair_market():
    m = ml.generate_market(1, 1, model=ml.linear_model(0.5), seed=1)
    matching = ml.run_da(m, LEFT)
    assert matching.pairs() == {(0, 0)}
    opt, pes = ml.extreme_matchings(m)
    assert opt.edges == pes.edges


def test_empty_edge_set_yields_empty_matching():
    m = ml.generate_market(4, 4, model=ml.linear_model(0.5), seed=2)
    matching = ml.run_da(m, LEFT, EdgeSet([], 4, 4))
    assert matching.pairs() == frozenset()
    assert matching.proposal_counts.sum() == 0


def test_da_output_is_stable(small_market):
    for side in (LEFT, RIGHT):
        matching = ml.run_da(small_market, side)
        assert ml.verify_stability(small_market, None, matching) == []


def test_da_stable_on_restricted_sets(small_market):
    # the audit reads only the set's edges, so the matching must lie inside it
    capacitated = ml.generate_market(40, 10, cap_right=4, model=ml.linear_model(0.7), seed=3)
    rng = np.random.default_rng(0)
    for market in (small_market, capacitated):
        for _ in range(5):
            edges = EdgeSet(np.flatnonzero(rng.random((market.n_left, market.n_right)) < 0.4),
                            market.n_left, market.n_right)
            for side in (LEFT, RIGHT):
                matching = ml.run_da(market, side, edges)
                assert ml.verify_stability(market, edges, matching) == []
                assert (matching.edges & edges) == matching.edges


def test_order_invariance(mid_market):
    # the proposals DA makes do not depend on the order proposers act in
    base = ml.run_da(mid_market, LEFT)
    for order_seed in (None, 1, 2, 3, 4):
        ref = reference_da(mid_market, LEFT, order_seed=order_seed)
        assert ref.edges == base.edges
        assert np.array_equal(ref.proposal_counts, base.proposal_counts)


def assert_same_run(got, want):
    assert got.proposing_side == want.proposing_side
    assert got.edges == want.edges
    for side in (LEFT, RIGHT):
        assert all(map(np.array_equal, got.edges.csr(side), want.edges.csr(side)))
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
    allowed = draw(st.none() | arrays(bool, (nl, nr)))
    edges = None if allowed is None else EdgeSet(np.flatnonzero(allowed), nl, nr)
    return market, draw(st.sampled_from([LEFT, RIGHT])), edges


@settings(max_examples=300, deadline=None)
@given(da_cases())
def test_kernel_matches_reference_with_ties(case):
    market, side, edges = case
    assert_same_run(ml.run_da(market, side, edges), reference_da(market, side, edges))


@pytest.mark.parametrize("caps", [(1, 1), (2, 3)])
@pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_kernel_matches_reference_with_receiver_ties(caps, restricted, side):
    # every receiver rates its proposers on three levels only, so most
    # proposals meet a held proposal of exactly equal utility, which the
    # lower index wins
    rng = np.random.default_rng(31)
    nl, nr = 45, 38
    market = make_manual_market(rng.integers(0, 3, (nl, nr)) / 2, rng.integers(0, 3, (nr, nl)) / 2,
                                cap_left=caps[0], cap_right=caps[1])
    for s in (LEFT, RIGHT):
        u = market.utility_matrix(s)
        assert all(np.unique(row).size == 3 for row in u)
    edges = EdgeSet(np.flatnonzero(rng.random((nl, nr)) < 0.6), nl, nr) if restricted else None
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
    pairs = [(i, j) for i, ms in enumerate(sets) for j in ms]
    m = ml.Matching(pairs, market.n_left, market.n_right)
    assert m.pairs() == set(pairs)
    assert EdgeSet(sorted(i * market.n_right + j for i, j in m.pairs()),
                   market.n_left, market.n_right) == m.edges
    by_side = {LEFT: [sorted(ms) for ms in sets],
               RIGHT: [[i for i, ms in enumerate(sets) if j in ms] for j in range(market.n_right)]}
    for side in (LEFT, RIGHT):
        tuples = by_side[side]
        indptr, partners = m.edges.csr(side)
        assert [partners[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])] == tuples
        assert m.edges.degrees(side).tolist() == [len(t) for t in tuples]
        assert m.matched_mask(side).tolist() == [bool(t) for t in tuples]
        for spare_is_worst in (False, True):
            got_u, got_j = worst_partner(market, side, m, spare_is_worst)
            want_u, want_j = loop_worst_partner(market, side, tuples, spare_is_worst)
            assert np.array_equal(got_u, want_u) and np.array_equal(got_j, want_j)
        want = loop_worst_partner(market, side, tuples, False)[0]
        want[~m.matched_mask(side)] = np.nan
        assert np.array_equal(ml.achieved_utilities(market, m, side), want, equal_nan=True)


@pytest.mark.parametrize("pairs,kwargs,message", [
    ([[0, 0], [1, 1]], dict(proposal_counts=[1, 2]), "proposal_counts"),
    ([[0, 0]], dict(proposing_side=RIGHT, proposal_counts=[1, 2, 0, 0]), "proposal_counts"),
    ([[0, 0], [0, 0]], {}, "more than once"),
    ([[2, 1], [0, 0], [2, 1]], {}, "more than once"),
    ([[0, 0]], dict(proposing_side="up"), "unknown proposing side 'up'"),
    ([[0, 0]], dict(proposing_side="Left"), "unknown proposing side 'Left'"),
    ([[1, 1], [0, -1]], {}, "out of range"),
    ([[3, 0]], {}, "out of range"),
])
def test_matching_rejects_bad_input(pairs, kwargs, message):
    with pytest.raises(ValueError, match=message):
        ml.Matching(pairs, 3, 3, **kwargs)


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
    ma, mb, _ = case
    nl, nr = ma.shape
    a, b = EdgeSet(np.flatnonzero(ma), nl, nr), EdgeSet(np.flatnonzero(mb), nl, nr)
    assert (a.n_left, a.n_right) == (nl, nr)
    assert np.array_equal(mask(a), ma) and not a.flat.flags.writeable
    assert np.array_equal(a.pairs(), np.argwhere(ma))
    assert a.edge_count == np.count_nonzero(ma)
    assert np.array_equal(a.degrees(LEFT), ma.sum(axis=1))
    assert np.array_equal(a.degrees(RIGHT), ma.sum(axis=0))
    assert a.is_full() == ma.all()
    assert np.array_equal(mask(a & b), ma & mb)
    assert ((a & b) == a) == bool(np.all(~ma | mb))
    assert (a == b) == np.array_equal(ma, mb)
    for side, rows in ((LEFT, ma), (RIGHT, ma.T)):
        indptr, indices = a.csr(side)
        assert indptr[0] == 0 and np.array_equal(np.diff(indptr), rows.sum(axis=1))
        assert np.array_equal(indices, np.nonzero(rows)[1])


@pytest.mark.parametrize("consumer", ["run_da", "verify_stability", "viable_edges",
                                      "acceptable_entry_levels", "achieved_utilities",
                                      "verify_stability-matching", "loss_rows"])
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
        "loss_rows": (lambda: ml.loss_rows(m, other), "matching"),
    }[consumer]
    with pytest.raises(ValueError, match=f"{kind} shape 30x29 disagrees with 30x30"):
        call()


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 4), (1, 1), (5, 7), (70, 3)])
def test_edge_set_pairs_match_argwhere(shape):
    rng = np.random.default_rng(sum(shape))
    for allowed in (rng.random(shape) < 0.4, np.zeros(shape, bool), np.ones(shape, bool)):
        got = EdgeSet(np.flatnonzero(allowed), *shape).pairs()
        want = np.argwhere(allowed)
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
    # full lists in int8 / int16 with n_left * n_right past the dtype's
    # maximum, so a receiver-times-size index computed unwidened would wrap
    (300, 128, 1, 1, None),
    (300, 128, 2, 3, None),
    (300, 129, 1, 1, None),
    (300, 129, 2, 3, None),
    (129, 300, 1, 1, None),
    (129, 300, 2, 3, None),
])
def test_kernel_matches_reference_on_generated_markets(nl, nr, cap_l, cap_r, density):
    m = ml.generate_market(nl, nr, cap_l, cap_r, model=ml.linear_model(0.8), seed=nl * nr)
    edges = None
    if density is not None:
        allowed = np.random.default_rng(nl).random((nl, nr)) < density
        allowed[0] = False
        allowed[:, 1] = False
        edges = EdgeSet(np.flatnonzero(allowed), nl, nr)
    for side in (LEFT, RIGHT):
        assert_same_run(ml.run_da(m, side, edges), reference_da(m, side, edges))


@pytest.fixture(scope="module")
def window_cases():
    """(market, proposing side, edges, reference run): generated markets in
    both shapes with full lists and with acceptable-edge sets, and a market
    whose utilities tie often, each from both sides."""
    rng = np.random.default_rng(21)
    grid = lambda shape: np.round(rng.random(shape) * 4) / 4
    markets = [ml.generate_market(300, 129, 2, 3, model=ml.linear_model(0.8), seed=21),
               ml.generate_market(129, 300, 2, 3, model=ml.linear_model(0.8), seed=22)]
    runs = [(m, edges) for m in markets
            for edges in (None, ml.acceptable_edges(m, 0.15, 0.15))]
    runs.append((make_manual_market(grid((300, 129)), grid((129, 300)), cap_left=2, cap_right=3),
                 None))
    return [(m, side, edges, reference_da(m, side, edges))
            for m, edges in runs for side in (LEFT, RIGHT)]


@pytest.mark.parametrize("start,cap", [
    pytest.param(1, 1, id="one-entry"),  # one entry per proposer per round
    pytest.param(64, 4096, id="long"),  # long windows
])
def test_window_rule_extremes_match_reference(monkeypatch, window_cases, start, cap):
    monkeypatch.setattr(engine, "_WINDOW_START", start)
    monkeypatch.setattr(engine, "_WINDOW_CAP", cap)
    for market, side, edges, want in window_cases:
        assert_same_run(ml.run_da(market, side, edges), want)


def test_matching_symmetry_and_capacity(small_market):
    matching = ml.run_da(small_market, LEFT)
    pairs = matching.pairs()
    for side in (LEFT, RIGHT):
        indptr, partners = matching.edges.csr(side)
        assert (np.diff(indptr) <= small_market.cap(side)).all()
        agents = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        seen = set(zip(agents.tolist(), partners.tolist()))
        assert seen == (pairs if side == LEFT else {(j, i) for i, j in pairs})


def test_capacitated_da_fills_and_respects_caps():
    m = ml.generate_market(80, 10, cap_right=8, model=ml.linear_model(0.8), seed=9)
    matching = ml.run_da(m, LEFT)
    assert ml.verify_stability(m, None, matching) == []
    assert matching.matched_mask(LEFT).all()
    assert (matching.edges.degrees(RIGHT) == 8).all()


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
    assert ml.run_double_cut_da(mid_market, LEFT, cut).edges == ml.run_da(mid_market, LEFT).edges
    # negative floors clamp to zero
    cut2 = ml.CutSpec(rating_floor=-3.0)
    assert ml.run_double_cut_da(mid_market, LEFT, cut2).edges == ml.run_da(mid_market, LEFT).edges


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
        full = worst_partner(m, RIGHT, ml.run_da(m, LEFT))[0][target]
        cut_u = worst_partner(m, RIGHT, ml.run_double_cut_da(m, LEFT, cut))[0][target]
        assert full >= cut_u


# --- extremes and multiplicity ---------------------------------------------


def test_extreme_matchings_unmatched_sets_agree():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = ml.generate_market(60, 60, model=ml.linear_model(0.7), seed=int(rng.integers(1 << 32)))
        edges = EdgeSet(np.flatnonzero(rng.random((60, 60)) < 0.1), 60, 60)
        left_opt, right_opt = ml.extreme_matchings(m, edges)
        for side in (LEFT, RIGHT):
            assert np.array_equal(left_opt.matched_mask(side), right_opt.matched_mask(side))


def test_multi_stable_agents_unique_instance():
    # strongly assortative: rating dominates, unique stable matching
    m = ml.generate_market(40, 40, model=ml.linear_model(0.999), seed=31)
    left, right = ml.multi_stable_agents(m)
    assert left == frozenset() and right == frozenset()


def test_multi_stable_agents_cyclic_instance():
    m = cyclic_three_market()
    stable = brute_force_stable_set(m)
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
        stable = brute_force_stable_set(m)
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
    ji, jk = int(partner[i]), int(partner[k])
    pairs = matching.pairs() - {(i, ji), (k, jk)} | {(i, jk), (k, ji)}
    swapped = ml.Matching(sorted(pairs), mid_market.n_left, mid_market.n_right)
    assert len(ml.verify_stability(mid_market, None, swapped)) >= 1


def test_empty_matching_blocks_everywhere():
    m = ml.generate_market(6, 6, model=ml.linear_model(0.5), seed=12)
    empty = ml.Matching([], 6, 6)
    rng = np.random.default_rng(0)
    edges = EdgeSet(np.flatnonzero(rng.random((6, 6)) < 0.5), 6, 6)
    blocking = ml.verify_stability(m, edges, empty)
    assert sorted(blocking) == sorted(map(tuple, edges.pairs()))


def test_verify_stability_capacitated_under_capacity_blocks():
    # one company with two slots holding one worker: a spare slot plus a
    # mutually acceptable worker is a blocking pair
    scores_l = np.array([[0.9], [0.8]])
    scores_r = np.array([[0.5, 0.6]])
    m = make_manual_market(scores_l, scores_r, cap_right=2)
    partial = ml.Matching([(0, 0)], 2, 1)
    blocking = ml.verify_stability(m, None, partial)
    assert blocking == [(1, 0)]


# --- brute force oracle -----------------------------------------------------


def test_brute_force_guards():
    m = ml.generate_market(9, 9, model=ml.linear_model(0.5), seed=1)
    with pytest.raises(ValueError):
        brute_force_stable_set(m)
    m2 = ml.generate_market(4, 2, cap_right=2, model=ml.linear_model(0.5), seed=1)
    with pytest.raises(ValueError):
        brute_force_stable_set(m2)


def test_brute_force_single():
    m = ml.generate_market(1, 1, model=ml.linear_model(0.5), seed=6)
    stable = brute_force_stable_set(m)
    assert len(stable) == 1 and stable[0].pairs() == {(0, 0)}


def test_brute_force_contains_da_outputs():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = ml.generate_market(3, 3, model=ml.linear_model(0.6), seed=int(rng.integers(1 << 32)))
        stable = brute_force_stable_set(m)
        a, b = ml.extreme_matchings(m)
        assert any(a.edges == s.edges for s in stable)
        assert any(b.edges == s.edges for s in stable)


def test_brute_force_unmatched_invariance_restricted():
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = ml.generate_market(n, n, model=ml.linear_model(0.5), seed=int(rng.integers(1 << 32)))
        edges = EdgeSet(np.flatnonzero(rng.random((n, n)) < 0.6), n, n)
        stable = brute_force_stable_set(m, edges)
        assert stable, "a stable matching always exists"
        unmatched = {tuple(np.flatnonzero(~s.matched_mask(LEFT)).tolist()) for s in stable}
        assert len(unmatched) == 1
        unmatched_r = {tuple(np.flatnonzero(~s.matched_mask(RIGHT)).tolist()) for s in stable}
        assert len(unmatched_r) == 1


# --- maximum matching -------------------------------------------------------


def test_max_matching_complete_and_empty():
    assert ml.max_bipartite_matching(EdgeSet.full(7, 7)) == 7
    assert ml.max_bipartite_matching(EdgeSet.full(3, 9)) == 3
    assert ml.max_bipartite_matching(EdgeSet([], 5, 5)) == 0


def test_max_matching_against_exhaustive():
    rng = np.random.default_rng(37)
    for _ in range(150):
        nl = int(rng.integers(1, 9))
        nr = int(rng.integers(1, 9))
        allowed = rng.random((nl, nr)) < float(rng.uniform(0.1, 0.9))
        assert (ml.max_bipartite_matching(EdgeSet(np.flatnonzero(allowed), nl, nr))
                == exhaustive_max_matching(allowed))


# --- the second extreme by rotations ---------------------------------------


def _rounded(rating, score):
    return np.round(4.0 * (0.5 * rating + 0.5 * score)) / 4.0


# utilities on five levels, so most lists and receivers hold exact ties
TIED_MODEL = ml.custom_model("rotation-ties", _rounded, _rounded, ratio_low=1.0, slope_cap=0.5)


@st.composite
def rotation_cases(draw):
    """(market arguments, first side): 1-12 agents a side, linear or tied."""
    model = draw(st.sampled_from([ml.linear_model(w) for w in (0.1, 0.5, 0.8, 0.95)] + [TIED_MODEL]))
    n_left, n_right = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    return (n_left, n_right, model, draw(st.integers(0, 2**32))), draw(st.sampled_from([LEFT, RIGHT]))


def _extremes(args, first):
    """The two runs on one market, `first` side first, and the market."""
    n_left, n_right, model, seed = args
    market = ml.generate_market(n_left, n_right, model=model, seed=seed)
    return ml.run_da(market, first), ml.run_da(market, ml.other_side(first)), market


@settings(max_examples=300, deadline=None)
@given(rotation_cases())
def test_second_side_by_rotations_equals_its_own_run(case):
    args, first = case
    _, derived, market = _extremes(args, first)
    assert ("da", first) not in market._cache
    n_left, n_right, model, seed = args
    fresh = ml.generate_market(n_left, n_right, model=model, seed=seed)
    assert_same_run(derived, ml.run_da(fresh, ml.other_side(first)))


def _optimum(stable, side, market):
    """Per `side` agent, its best partner over the stable matchings `stable`."""
    u = market.utility_matrix(side)
    best = []
    for a in range(market.n(side)):
        partners = {s.partner(side)[a] for s in stable}
        best.append(min(partners, key=lambda p: (-u[a, p], p)))
    return best


@pytest.mark.parametrize("first", [LEFT, RIGHT])
def test_both_extremes_equal_the_brute_force_optima(first):
    rng = np.random.default_rng(83)
    for k in range(40):
        n = int(rng.integers(1, 9))
        model = TIED_MODEL if k % 4 == 0 else ml.linear_model(float(rng.choice([0.1, 0.5, 0.8])))
        runs = _extremes((n, n, model, int(rng.integers(1 << 32))), first)
        market = runs[2]
        stable = brute_force_stable_set(market)
        for matching in runs[:2]:
            side = matching.proposing_side
            assert matching.partner(side).tolist() == _optimum(stable, side, market)


@pytest.mark.parametrize("shape", [(300, 300), (2000, 1200)])
def test_second_side_by_rotations_at_scale(shape):
    for first in (LEFT, RIGHT):
        _, derived, _ = _extremes((*shape, ml.linear_model(0.8), 41), first)
        fresh = ml.generate_market(*shape, model=ml.linear_model(0.8), seed=41)
        assert_same_run(derived, ml.run_da(fresh, ml.other_side(first)))


@pytest.mark.parametrize("case", ["cap-2", "full-edges", "restricted"])
def test_other_runs_take_the_rounds(monkeypatch, case):
    # no capacity above 1 and no explicit edge set hands a run on
    monkeypatch.setattr(engine, "_other_optimum", None)
    caps = (2, 1) if case == "cap-2" else (1, 1)
    market = ml.generate_market(30, 40, *caps, model=ml.linear_model(0.7), seed=5)
    edges = None
    if case != "cap-2":
        rng = np.random.default_rng(7)
        edges = (EdgeSet.full(30, 40) if case == "full-edges"
                 else EdgeSet(np.flatnonzero(rng.random(30 * 40) < 0.3), 30, 40))
    for side in (LEFT, RIGHT, LEFT):
        assert_same_run(ml.run_da(market, side, edges), reference_da(market, side, edges))
    assert not any(key[0] == "da" for key in market._cache)
    if case == "full-edges":
        # an explicit edge set neither takes nor leaves the hand-off
        ml.run_da(market, LEFT)
        assert_same_run(ml.run_da(market, RIGHT, edges), reference_da(market, RIGHT))
        assert ("da", LEFT) in market._cache


def test_hand_off_is_dropped_after_the_second_run():
    market = ml.generate_market(20, 20, model=ml.linear_model(0.5), seed=3)
    first = ml.run_da(market, LEFT)
    assert market._cache[("da", LEFT)][0] is first
    ml.run_da(market, RIGHT)
    assert not any(key[0] == "da" for key in market._cache)
    # with nothing to derive from, the next run takes the rounds again
    again = ml.run_da(market, LEFT)
    assert again is not first and again.edges == first.edges
    assert ("da", LEFT) in market._cache
