"""Weight, value, threshold and profile samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smaaflow import InputError, SamplingError, TFN
from smaaflow.errors import THRESHOLD
from smaaflow import smaa
from smaaflow.hierarchy import WeightSpec
from smaaflow.smaa import (
    BLOCK,
    PreferenceModel,
    StochasticValue,
    iteration_rng,
    sample_group_weights,
    sample_profiles,
    sample_thresholds,
    sample_value,
    sample_weights_interval,
    sample_weights_missing,
    sample_weights_ordinal,
)

N_STAT = 20_000


def dirichlet_se(n, draws):
    # variance of one coordinate of a uniform simplex point
    var = (n - 1) / (n * n * (n + 1))
    return math.sqrt(var / draws)


# ---------------------------------------------------------------------------
# Missing information: uniform over the simplex
# ---------------------------------------------------------------------------


def test_missing_single_weight_is_one():
    assert sample_weights_missing(1, iteration_rng(0, 0)).tolist() == [1.0]


def test_missing_rows_sum_to_one():
    w = sample_weights_missing(4, iteration_rng(0, 1), size=257)
    assert w.shape == (257, 4)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert (w >= 0).all()


def test_missing_component_means_are_uniform():
    n = 5
    w = sample_weights_missing(n, iteration_rng(7, 0), size=N_STAT)
    se = dirichlet_se(n, N_STAT)
    assert np.abs(w.mean(axis=0) - 1 / n).max() < 3 * se


def test_missing_is_seed_deterministic():
    a = sample_weights_missing(3, iteration_rng(11, 4), size=10)
    b = sample_weights_missing(3, iteration_rng(11, 4), size=10)
    c = sample_weights_missing(3, iteration_rng(11, 5), size=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Ordinal information
# ---------------------------------------------------------------------------


def test_ordinal_full_ranking_is_ordered_every_draw():
    ranks = [3, 1, 2]
    w = sample_weights_ordinal(ranks, iteration_rng(1, 0), size=4000)
    assert (w[:, 1] >= w[:, 2]).all()
    assert (w[:, 2] >= w[:, 0]).all()
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_ordinal_ties_are_exactly_equal():
    # the input-importance ranking of the bundled case study
    ranks = [2, 2, 3, 4, 1]
    w = sample_weights_ordinal(ranks, iteration_rng(1, 1), size=4000)
    assert (w[:, 0] == w[:, 1]).all()
    assert (w[:, 4] >= w[:, 0]).all()
    assert (w[:, 1] >= w[:, 2]).all()
    assert (w[:, 2] >= w[:, 3]).all()


def test_ordinal_all_tied_matches_missing():
    same = sample_weights_ordinal([1, 1, 1], iteration_rng(2, 0), size=50)
    assert np.allclose(same.sum(axis=1), 1.0, atol=1e-12)
    assert (same[:, 0] == same[:, 1]).all() and (same[:, 1] == same[:, 2]).all()
    assert np.allclose(same, 1 / 3)


def test_ordinal_partial_ranking():
    # only positions 0 and 2 are ranked; position 1 floats freely
    w = sample_weights_ordinal([1, None, 2], iteration_rng(3, 0), size=2000)
    assert (w[:, 0] >= w[:, 2]).all()
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    # the unranked component must not be forced under the ranked ones
    assert (w[:, 1] > w[:, 0]).any()


def test_ordinal_partial_with_ties():
    w = sample_weights_ordinal([2, None, 2, 1], iteration_rng(3, 1), size=2000)
    assert (w[:, 0] == w[:, 2]).all()
    assert (w[:, 3] >= w[:, 0]).all()


def test_ordinal_many_ranked_with_a_free_member_draws_without_stalling():
    # rejection would keep about one uniform draw in 11!
    w = sample_weights_ordinal([*range(1, 12), None], iteration_rng(3, 2), size=1000)
    assert w.shape == (1000, 12)
    assert (np.diff(w[:, :11], axis=1) <= 0).all()
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_ordinal_partial_matches_a_rejection_reference():
    ranks = [2, None, 2, 1]
    w = sample_weights_ordinal(ranks, iteration_rng(3, 3), size=N_STAT)
    # reference: uniform simplex draws kept when the rank-1 member beats
    # both rank-2 members, which then share their mean
    ref = sample_weights_missing(4, iteration_rng(3, 4), size=3 * N_STAT)
    ref = ref[ref[:, 3] >= np.maximum(ref[:, 0], ref[:, 2])]
    ref[:, [0, 2]] = ref[:, [0, 2]].mean(axis=1, keepdims=True)
    se = np.sqrt(w.var(axis=0) / len(w) + ref.var(axis=0) / len(ref))
    assert (np.abs(w.mean(axis=0) - ref.mean(axis=0)) < 4 * se).all()


def test_ordinal_all_none_falls_back_to_missing():
    a = sample_weights_ordinal([None, None], iteration_rng(4, 0), size=5)
    b = sample_weights_missing(2, iteration_rng(4, 0), size=5)
    assert np.array_equal(a, b)


def test_ordinal_bad_ranks_rejected():
    with pytest.raises(ValueError):
        sample_weights_ordinal([0, 1], iteration_rng(0, 0))
    with pytest.raises(ValueError):
        sample_weights_ordinal([1.5, 1], iteration_rng(0, 0))


def test_ordinal_mean_respects_rank():
    w = sample_weights_ordinal([1, 2, 3], iteration_rng(5, 0), size=N_STAT)
    means = w.mean(axis=0)
    assert means[0] > means[1] > means[2]
    # expected means of sorted uniform spacings: (11/18, 5/18, 2/18)
    assert means == pytest.approx([11 / 18, 5 / 18, 2 / 18], abs=0.02)


# ---------------------------------------------------------------------------
# Interval information
# ---------------------------------------------------------------------------


def test_interval_bounds_hold_every_draw():
    bounds = [(0.5, 1.0), (0.3, 0.7), (0.0, 0.4)]
    w = sample_weights_interval(bounds, iteration_rng(6, 0), size=3000)
    for j, (lo, hi) in enumerate(bounds):
        assert (w[:, j] >= lo).all() and (w[:, j] <= hi).all()
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    # no rows asked, none drawn
    rng = iteration_rng(6, 0)
    state = rng.bit_generator.state
    assert sample_weights_interval(bounds, rng, size=0).shape == (0, 3)
    assert rng.bit_generator.state == state


def test_interval_infeasible_raises():
    with pytest.raises(SamplingError) as err:
        sample_weights_interval([(0.8, 0.9), (0.8, 0.9)],
                                iteration_rng(0, 0), max_attempts=3000)
    assert "0.8" in str(err.value)


def test_interval_narrow_box_fills_a_block():
    # accepts about 2e-4 of simplex draws: a block needs over a million
    bounds = [(0.30, 0.31), (0.30, 0.31), (0.38, 0.40)]
    spec = WeightSpec.interval(bounds)
    w = sample_group_weights(spec, 3, iteration_rng(9, 0), size=BLOCK)
    assert w.shape == (BLOCK, 3)
    lo, hi = np.array(bounds).T
    assert ((w >= lo) & (w <= hi)).all()
    assert np.allclose(w.sum(axis=1), 1.0)


def test_group_weight_dispatch():
    rng = iteration_rng(8, 0)
    det = sample_group_weights(WeightSpec.deterministic([0.25, 0.75]), 2, rng)
    assert det.tolist() == [0.25, 0.75]
    ordn = sample_group_weights(WeightSpec.ordinal([1, 2]), 2, iteration_rng(8, 1))
    assert ordn[0] >= ordn[1]
    miss = sample_group_weights(WeightSpec.missing(), 3, iteration_rng(8, 2))
    assert miss.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Block weight draws
# ---------------------------------------------------------------------------


def old_missing(n, rng, size):
    """One uniform simplex matrix from its own ``random`` call, sorted on
    its own, as the per-group sampler draws it without stacking."""
    u = rng.random((size, n - 1))
    u.sort(axis=-1)
    return np.diff(u, axis=-1, prepend=0.0, append=1.0)


def old_ordinal(ranks, rng, size):
    """The per-group ordinal sampler, ranked on its own without stacking."""
    ranked = np.array([i for i, r in enumerate(ranks) if r is not None], dtype=np.int64)
    by_rank = {}
    for i, r in enumerate(ranks[j] for j in ranked):
        by_rank.setdefault(r, []).append(i)
    v = old_missing(len(ranks), rng, size)
    desc = np.flip(np.sort(v[..., ranked], axis=-1), axis=-1)
    out = np.empty_like(desc)
    pos = 0
    for r in sorted(by_rank):
        members = by_rank[r]
        out[..., members] = desc[..., pos : pos + len(members)].mean(axis=-1, keepdims=True)
        pos += len(members)
    v[..., ranked] = out
    return v


def reference_weights(groups, n_nodes, rng, bs):
    """(bs, n_nodes) weight rows drawn group by group in order: missing and
    ordinal groups by the old per-group formulas, interval groups by
    ``sample_weights_interval`` and deterministic ones by tiling their
    values, so that no group goes through ``_draw_weights``."""
    w = np.empty((bs, n_nodes))
    for idx, spec in groups:
        if spec.kind == "missing":
            w[:, idx] = old_missing(len(idx), rng, bs)
        elif spec.kind == "ordinal":
            w[:, idx] = old_ordinal(spec.values, rng, bs)
        elif spec.kind == "interval":
            w[:, idx] = sample_weights_interval(spec.values, rng, size=bs)
        else:
            w[:, idx] = np.tile(spec.values, (bs, 1))
    return w


#: Accepts about 3% of simplex draws, so a block redraws candidates.
REDRAWN_BOX = WeightSpec.interval([(0.3, 0.4), (0.25, 0.4), (0.2, 0.45)])

#: Ordinal ranks: a tie of nine, the case study's ranks, free members and
#: one member.
ORDINAL_RANKS = ([1] * 9 + [2], [2, 2, 3, 4, 1], [1, None, 2], [None, None], [1])

GROUPS = st.one_of(
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4).map(WeightSpec.deterministic),
    st.integers(1, 5).map(lambda n: (WeightSpec.missing(), n)),
    st.sampled_from(ORDINAL_RANKS).map(WeightSpec.ordinal),
    st.lists(st.one_of(st.none(), st.integers(1, 4)), min_size=1, max_size=10)
    .map(WeightSpec.ordinal),
    st.sampled_from([REDRAWN_BOX, WeightSpec.interval([(0.0, 1.0), (0.1, 0.9)])]),
).map(lambda g: g if isinstance(g, tuple) else (g, len(g.values)))


def column_groups(specs, order):
    """(member node columns, spec) pairs of the (spec, size) ``specs``,
    taking their columns from ``order`` in turn, and the column count."""
    groups, pos = [], 0
    for spec, n in specs:
        groups.append((np.asarray(order[pos : pos + n], dtype=np.int64), spec))
        pos += n
    return groups, pos


def block_and_reference(groups, n_nodes, bs, seed):
    """A block of weight rows of ``groups`` from ``_draw_weights``, from
    the group-by-group reference and from the ``sample_group_weights``
    loop, each with the generator's next float after it."""
    out = []
    for draw in (lambda rng: smaa._draw_weights(groups, n_nodes, rng, bs),
                 lambda rng: reference_weights(groups, n_nodes, rng, bs)):
        rng = iteration_rng(seed, 0)
        out.append((draw(rng), rng.random()))
    rng = iteration_rng(seed, 0)
    loop = np.empty((bs, n_nodes))
    for idx, spec in groups:
        loop[:, idx] = sample_group_weights(spec, len(idx), rng, size=bs)
    return out + [(loop, rng.random())]


def assert_same_blocks(blocks):
    (w, after), *others = blocks
    for other, other_after in others:
        assert w.tobytes() == other.tobytes()
        assert after == other_after


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(GROUPS, min_size=1, max_size=8), bs=st.sampled_from([1, 5, BLOCK]),
       seed=st.integers(0, 2**32), shuffle=st.randoms(use_true_random=False))
def test_block_weights_equal_the_group_by_group_draws(specs, bs, seed, shuffle):
    # missing and ordinal groups are sorted per (kind, ranks, size) stack,
    # across interval groups, yet every weight row, and the generator's
    # position after the block, is that of one draw per group
    order = list(range(sum(n for _, n in specs)))
    shuffle.shuffle(order)
    assert_same_blocks(block_and_reference(*column_groups(specs, order), bs, seed))


@pytest.mark.parametrize("bs", [1, 5, BLOCK])
def test_block_weights_stack_across_interval_groups(bs, monkeypatch):
    # deterministic, one- and two-member missing, repeated ordinal and
    # nine-way tied ordinal groups, whose stacks span a redrawn interval
    # box and a loose one
    specs = [(WeightSpec.deterministic([0.6, 0.4]), 2), (WeightSpec.missing(), 1),
             (WeightSpec.ordinal([1, 2, None]), 3), (WeightSpec.missing(), 2),
             (WeightSpec.ordinal([1] * 9 + [2]), 10), (REDRAWN_BOX, 3),
             (WeightSpec.ordinal([2, 2, 3, 4, 1]), 5), (WeightSpec.deterministic([1.0]), 1),
             (WeightSpec.ordinal([2, 2, 3, 4, 1]), 5), (WeightSpec.missing(), 2),
             (WeightSpec.interval([(0.0, 1.0), (0.1, 0.9)]), 2),
             (WeightSpec.ordinal([2, 2, 3, 4, 1]), 5), (WeightSpec.missing(), 1)]
    groups, n_nodes = column_groups(specs, range(sum(n for _, n in specs)))
    assert_same_blocks(block_and_reference(groups, n_nodes, bs, 11))
    # only the interval groups draw candidates: the loose box takes one
    # batch, and from 5 rows on the redrawn one more than one
    batches = []
    real = smaa.sample_weights_missing
    monkeypatch.setattr(smaa, "sample_weights_missing",
                        lambda *args, **kwargs: batches.append(args) or real(*args, **kwargs))
    smaa._draw_weights(groups, n_nodes, iteration_rng(11, 0), bs)
    assert len(batches) > 2 or bs == 1


# ---------------------------------------------------------------------------
# Values, thresholds, profiles
# ---------------------------------------------------------------------------


def test_deterministic_values_do_not_consume_randomness():
    probe_a, probe_b = iteration_rng(9, 0), iteration_rng(9, 0)
    for v in (StochasticValue.crisp(4.0),
              StochasticValue.fuzzy(TFN(4, 1, 1)),
              StochasticValue.linguistic("H", TFN(6, 0.75, 0.75))):
        assert sample_value(v, probe_a) == v.resolved()
        f = v.resolved()
        block = sample_value(v, probe_a, bounds=np.zeros((BLOCK, 2)), size=BLOCK)
        assert np.array_equal(block, np.tile((f.m, f.alpha, f.beta), (BLOCK, 1)))
    assert probe_a.random() == probe_b.random()


def test_interval_value_respects_intersection():
    v = StochasticValue.interval(2.0, 8.0)
    rng = iteration_rng(9, 1)
    draws = [sample_value(v, rng, bounds=(5.0, 10.0)).m for _ in range(300)]
    assert min(draws) >= 5.0 and max(draws) <= 8.0
    # one (lo, hi) pair per row of a block
    lo = np.linspace(1.0, 7.0, BLOCK)
    block = sample_value(v, rng, bounds=np.stack([lo, lo + 1.5], axis=1), size=BLOCK)
    assert block.shape == (BLOCK, 3) and not block[:, 1:].any()
    assert (block[:, 0] >= np.maximum(lo, 2.0)).all()
    assert (block[:, 0] <= np.minimum(lo + 1.5, 8.0)).all()


def test_interval_value_outside_bounds_raises():
    with pytest.raises(SamplingError):
        sample_value(StochasticValue.interval(0.0, 1.0), iteration_rng(0, 0),
                     bounds=(2.0, 3.0))
    # a single unreachable row fails the block
    bounds = np.tile((0.0, 1.0), (BLOCK, 1))
    bounds[-1] = (2.0, 3.0)
    with pytest.raises(SamplingError):
        sample_value(StochasticValue.interval(0.0, 1.0), iteration_rng(0, 0),
                     bounds=bounds, size=BLOCK)


def test_normal_value_truncated():
    v = StochasticValue.normal(5.0, 2.0, lo=4.0, hi=6.0)
    rng = iteration_rng(9, 2)
    draws = [sample_value(v, rng).m for _ in range(300)]
    assert min(draws) >= 4.0 and max(draws) <= 6.0
    lo = np.linspace(3.6, 5.5, BLOCK)
    block = sample_value(v, rng, bounds=np.stack([lo, lo + 0.5], axis=1), size=BLOCK)[:, 0]
    assert (block >= np.maximum(lo, 4.0)).all() and (block <= np.minimum(lo + 0.5, 6.0)).all()
    # about 1 draw in 15 lands above 1.5: 200 attempts suffice for one
    # value, and they are counted per row, so they suffice for a block too
    tail = StochasticValue.normal(0.0, 1.0, lo=1.5)
    block = sample_value(tail, rng, max_attempts=200, size=BLOCK)[:, 0]
    assert (block >= 1.5).all()


def test_normal_value_needs_a_nonempty_truncation():
    # a continuous draw never lands on a single point
    for lo, hi in ((1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError, match="empty truncation"):
            StochasticValue.normal(0.0, 1.0, lo=lo, hi=hi)
    # a mean or spread that is not finite would draw only infinities or
    # stall; the truncation may stay open
    for mean, sd in ((0.0, math.inf), (math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            StochasticValue.normal(mean, sd)
    assert StochasticValue.normal(0.0, 1.0, lo=-math.inf, hi=math.inf).hi == math.inf


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                                    (0.0, math.nan), (-1e308, 1e308)])
def test_interval_value_needs_a_finite_width(lo, hi):
    # numpy's uniform cannot draw these: they would fail at the first draw
    with pytest.raises(ValueError, match="no finite width"):
        StochasticValue.interval(lo, hi)


def test_pair_and_column_samplers_honour_max_attempts():
    # about 1 draw in 15 lands above 1.5, so one attempt per row cannot
    # fill 256 rows; the limit reaches the normal's own truncation too
    tail = StochasticValue.normal(0.0, 1.0, lo=1.5)
    with pytest.raises(SamplingError, match=r"no draw inside \[1.5, inf\] after 1 attempts"):
        sample_thresholds(tail, StochasticValue.crisp(10.0), iteration_rng(0, 0),
                          max_attempts=1, size=BLOCK)
    with pytest.raises(SamplingError, match=r"no draw inside \[1.5, inf\] after 1 attempts"):
        sample_profiles([[tail], [StochasticValue.crisp(0.0)]], [PreferenceModel()],
                        iteration_rng(0, 0), max_attempts=1, size=BLOCK)


def test_threshold_pair_deterministic():
    q, p = sample_thresholds(StochasticValue.crisp(0.5),
                             StochasticValue.crisp(2.0), iteration_rng(0, 0))
    assert (q, p) == (0.5, 2.0)
    # equality is fine unless a strict pair is required
    assert sample_thresholds(StochasticValue.crisp(1.0),
                             StochasticValue.crisp(1.0),
                             iteration_rng(0, 0)) == (1.0, 1.0)
    with pytest.raises(InputError) as err:
        sample_thresholds(StochasticValue.crisp(1.0), StochasticValue.crisp(1.0),
                          iteration_rng(0, 0), strict=True)
    assert err.value.code == THRESHOLD
    with pytest.raises(InputError):
        sample_thresholds(StochasticValue.crisp(3.0), StochasticValue.crisp(2.0),
                          iteration_rng(0, 0))
    q, p = sample_thresholds(StochasticValue.crisp(0.5), StochasticValue.crisp(2.0),
                             None, size=BLOCK)
    assert q.tolist() == [0.5] * BLOCK and p.tolist() == [2.0] * BLOCK


def test_threshold_pair_stochastic_resamples_until_ordered():
    q_spec = StochasticValue.interval(0.0, 1.0)
    p_spec = StochasticValue.interval(0.0, 1.0)
    rng = iteration_rng(10, 0)
    for _ in range(200):
        q, p = sample_thresholds(q_spec, p_spec, rng, strict=True)
        assert q < p
    q, p = sample_thresholds(q_spec, p_spec, rng, strict=True, size=BLOCK)
    assert q.shape == p.shape == (BLOCK,)
    assert (q < p).all() and (q >= 0.0).all() and (p <= 1.0).all()
    # a one-point interval pair ties on every draw: q <= p takes it, q < p never
    point = StochasticValue.interval(1.0, 1.0)
    assert sample_thresholds(point, point, rng, size=BLOCK)[0].tolist() == [1.0] * BLOCK
    with pytest.raises(SamplingError, match=r"\(q < p\) after 5 attempts"):
        sample_thresholds(point, point, rng, strict=True, max_attempts=5, size=BLOCK)


def test_sample_profiles_deterministic_passthrough():
    specs = [[StochasticValue.crisp(10.0)], [StochasticValue.crisp(5.0)],
             [StochasticValue.crisp(0.0)]]
    models = [PreferenceModel()]
    out = sample_profiles(specs, models, iteration_rng(0, 0))
    assert out.shape == (3, 1, 3)
    assert out[:, 0, 0].tolist() == [10.0, 5.0, 0.0]
    block = sample_profiles(specs, models, None, size=BLOCK)
    assert block.shape == (BLOCK, 3, 1, 3)
    assert (block == out).all()


def test_sample_profiles_rejects_until_dominant():
    # overlapping intervals force the rejection loop to do real work
    specs = [[StochasticValue.interval(0.4, 1.0)],
             [StochasticValue.interval(0.2, 0.8)],
             [StochasticValue.interval(0.0, 0.6)]]
    models = [PreferenceModel()]
    rng = iteration_rng(11, 0)
    for _ in range(100):
        out = sample_profiles(specs, models, rng)
        col = out[:, 0, 0]
        assert col[0] > col[1] > col[2]
    cols = sample_profiles(specs, models, rng, size=BLOCK)[:, :, 0, 0]
    assert ((cols[:, 0] > cols[:, 1]) & (cols[:, 1] > cols[:, 2])).all()


@pytest.mark.parametrize("direction, best, middle, worst", [
    ("maximize", (4.0, 8.0), TFN(3.0, 1.0, 1.5), 0.0),
    ("minimize", (0.0, 4.0), TFN(5.0, 1.5, 1.0), 10.0),
])
def test_sample_profiles_never_overlaps_a_fuzzy_neighbour(direction, best, middle, worst):
    # every drawn mode beats the fuzzy profile's mode, so only the support
    # overlap rule can reject; the middle support ends at 4.5 (maximize)
    # or starts at 3.5 (minimize), inside the best profile's interval
    specs = [[StochasticValue.interval(*best)], [StochasticValue.fuzzy(middle)],
             [StochasticValue.crisp(worst)]]
    models = [PreferenceModel(direction=direction)]
    rng = iteration_rng(5, 0)
    for _ in range(200):
        drawn = sample_profiles(specs, models, rng)[0, 0, 0]
        if direction == "maximize":
            assert drawn >= middle.support[1]
        else:
            assert drawn <= middle.support[0]
    block = sample_profiles(specs, models, rng, size=BLOCK)[:, 0, 0, 0]
    if direction == "maximize":
        assert (block >= middle.support[1]).all()
    else:
        assert (block <= middle.support[0]).all()


def test_iteration_rng_streams_are_stable_and_distinct():
    a = iteration_rng(123, 0).random(4)
    b = iteration_rng(123, 0).random(4)
    c = iteration_rng(123, 1).random(4)
    d = iteration_rng(124, 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
