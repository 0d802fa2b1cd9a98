"""Acceptability analysis: the simulation loop, determinism and edge cases.

The weight-variant expectations are derived by hand.  On the walkthrough
fixture the outranking degrees against the middle profile reduce to
pi(x2, r2) = w1 and pi(r2, x2) = 1 - w1, where w1 is the first-level
weight of G1, so phi(x2) = (2 w1 - 1)/3 and the C1/C2 boundary sits at
w1 = 1/2 exactly.  Ranking G2 above G1 keeps w1 <= 1/2 on every draw
(all C2); leaving the weights unstated makes w1 uniform on (0, 1), so
the C1 share converges to 1/2.  x1 beats or loses to every profile
unanimously across criteria, so its category ignores the weights.
"""

import copy
import json
import math
from statistics import NormalDist

import numpy as np
import pytest

from smaaflow import (
    TFN,
    BoundaryViolation,
    InputError,
    PreferenceSpec,
    ProfileSet,
    assign,
    flow_bundle,
    run_smaa,
)
from smaaflow.errors import WEIGHT_SPEC
from smaaflow.model_io import fixture_path, parse_problem
from smaaflow.smaa import (
    BLOCK,
    ProblemRuntime,
    _split,
    deterministic_result,
    sample_profiles,
    sample_thresholds,
    sample_value,
)


@pytest.fixture(scope="module")
def walkthrough_doc():
    with open(fixture_path("walkthrough")) as fh:
        return json.load(fh)


def variant(doc, **changes):
    out = copy.deepcopy(doc)
    for key, value in changes.items():
        node = out
        *head, last = key.split(".")
        for part in head:
            node = node[part]
        node[last] = value
    return parse_problem(out)


@pytest.fixture(scope="module")
def stochastic_walkthrough(walkthrough_doc):
    """The walkthrough with interval evaluations, interval linear q/p and
    an interval middle profile on g21; x2 lands in C1 on about 3 draws in 4."""
    linear = {"shape": "linear", "q": [0, 0.5], "p": [1, 2]}
    profiles = copy.deepcopy(walkthrough_doc["profiles"]["per_criterion"])
    profiles["G2/g21"] = [20, [8, 12], 0]
    return variant(walkthrough_doc, **{
        "alternatives": {
            "x1": {"G1/g11": [7, 9], "G1/g12": [0.5, 2], "G2/g21": [14, 18], "G2/g22": [25, 29]},
            "x2": {"G1/g11": [8, 9.5], "G1/g12": [2, 4], "G2/g21": [6, 14], "G2/g22": [9, 24]},
        },
        "preferences": {"default": linear,
                        "per_criterion": {"G1/g12": dict(linear, direction="minimize")}},
        "profiles.per_criterion": profiles,
    })


def test_degenerate_run_equals_deterministic_result(walkthrough):
    fixed = deterministic_result(walkthrough)
    assert fixed.category_index.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert fixed.iterations == 1
    for iters in (7, 100):
        res = run_smaa(walkthrough, iterations=iters, seed=3)
        assert np.array_equal(res.category_index, fixed.category_index)
        assert np.array_equal(res.node_index, fixed.node_index)
        assert res.iterations == iters
        assert res.boundary_violations == 0


def test_node_index_shape_and_rows(walkthrough):
    res = run_smaa(walkthrough, iterations=5, seed=0)
    assert res.category_index.shape == (2, 2)
    assert res.node_index.shape == (6, 2, 2)
    assert np.allclose(res.category_index.sum(axis=-1), 1.0, atol=1e-9)
    assert np.allclose(res.node_index.sum(axis=-1), 1.0, atol=1e-9)
    # first-level diagnostics of x2 disagree between subtrees, category
    # acceptability is still all-C2
    paths = {p: i for i, p in enumerate(res.node_paths)}
    assert res.node_index[paths[(1,)], 1].tolist() == [1.0, 0.0]
    assert res.node_index[paths[(2,)], 1].tolist() == [0.0, 1.0]


def test_ordinal_first_level_weights_pin_x2_to_c2(walkthrough_doc):
    problem = variant(walkthrough_doc, **{"tree.weights": {"ordinal": [2, 1]}})
    res = run_smaa(problem, iterations=2000, seed=5)
    assert res.boundary_violations == 0
    assert res.category_index.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_missing_first_level_weights_split_x2_evenly(walkthrough_doc):
    problem = variant(walkthrough_doc, **{"tree.weights": {"missing": True}})
    res = run_smaa(problem, iterations=4000, seed=11)
    assert res.boundary_violations == 0
    assert res.category_index[0].tolist() == [1.0, 0.0]
    assert res.category_index[1, 0] == pytest.approx(0.5, abs=0.025)
    assert res.category_index[1].sum() == pytest.approx(1.0, abs=1e-12)


def test_same_seed_same_result(walkthrough_doc):
    problem = variant(walkthrough_doc, **{"tree.weights": {"missing": True}})
    a = run_smaa(problem, iterations=500, seed=21)
    b = run_smaa(problem, iterations=500, seed=21)
    c = run_smaa(problem, iterations=500, seed=22)
    assert np.array_equal(a.category_index, b.category_index)
    assert np.array_equal(a.node_index, b.node_index)
    assert not np.array_equal(a.category_index, c.category_index)


def test_thread_count_does_not_change_results(walkthrough_doc, stochastic_walkthrough):
    missing = variant(walkthrough_doc, **{"tree.weights": {"missing": True}})
    # an uneven split, and more threads than blocks; sampled weights, then
    # sampled evaluations, thresholds and profiles
    for problem, iterations, threads in ((missing, 600, 4), (missing, 3 * BLOCK + 5, 2),
                                         (missing, 3 * BLOCK + 5, 8),
                                         (stochastic_walkthrough, 3 * BLOCK + 5, 2)):
        serial = run_smaa(problem, iterations=iterations, seed=9, threads=1)
        threaded = run_smaa(problem, iterations=iterations, seed=9, threads=threads)
        assert serial.category_index.tobytes() == threaded.category_index.tobytes()
        assert serial.node_index.tobytes() == threaded.node_index.tobytes()
        assert serial.boundary_violations == threaded.boundary_violations

        spans = _split(iterations, threads)
        assert len(spans) <= -(-iterations // BLOCK)
        assert spans[0][0] == 0
        for (start, count), (after, _) in zip(spans, spans[1:] + [(iterations, 0)]):
            assert start % BLOCK == 0 and count > 0
            assert start + count == after


def test_block_data_draws_match_a_per_iteration_reference(stochastic_walkthrough):
    # the reference draws one iteration at a time with the scalar samplers
    # and assigns each alternative on its own through flow_bundle
    problem = stochastic_walkthrough
    draws = 1000
    res = run_smaa(problem, iterations=draws, seed=4)
    assert res.boundary_violations == 0
    tree, models = problem.tree, problem.preference_models
    weights = tree.deterministic_weights()
    rng = np.random.default_rng(12)
    hits = np.zeros(len(problem.alternative_names))
    for _ in range(draws):
        profiles = sample_profiles(problem.profile_specs, models, rng)
        prefs = []
        for mdl in models:
            q, p = sample_thresholds(mdl.q, mdl.p, rng, strict=mdl.shape == "linear")
            prefs.append(PreferenceSpec(shape=mdl.shape, q=q, p=p, direction=mdl.direction))
        levels = ProfileSet([[TFN(*map(float, f)) for f in row] for row in profiles])
        lo = (profiles[..., 0] - profiles[..., 1]).min(axis=0)
        hi = (profiles[..., 0] + profiles[..., 2]).max(axis=0)
        for i, row in enumerate(problem.evaluation_specs):
            x = [sample_value(v, rng, bounds=(lo[t], hi[t])) for t, v in enumerate(row)]
            hits[i] += assign(flow_bundle(tree, weights, prefs, levels, x)) == 1
    for block_share, ref_share in zip(res.category_index[:, 0], hits / draws):
        pooled = (block_share + ref_share) / 2
        se = math.sqrt(pooled * (1 - pooled) * 2 / draws)
        assert abs(block_share - ref_share) <= 4 * se
    assert 0.5 < res.category_index[1, 0] < 0.95


Q_NORMAL = NormalDist(1, 1)


@pytest.mark.parametrize("q, share", [
    ([0.5, 1.0], 0.6),
    ({"normal": {"mean": 1, "sd": 1, "min": 0}},
     (Q_NORMAL.cdf(0.8) - Q_NORMAL.cdf(0.0)) / (1.0 - Q_NORMAL.cdf(0.0))),
], ids=["interval", "normal"])
def test_stochastic_u_shape_threshold_is_sampled(q, share):
    # Leaf A (weight 0.6) is a u-shape with profiles 10, 5, 0 and a = 5.8;
    # leaf B (weight 0.4) is usual with a = 4, below the middle profile.  A
    # adds 2 to phi(a) - phi(r2), in thirds, while q < 0.8 (a beats r2 by
    # 0.8) and at most 1 for larger q, against B's -2: a lands in C1 exactly
    # when q < 0.8, so its C1 share is P(q < 0.8).
    doc = {
        "schema": 1,
        "categories": ["good", "bad"],
        "tree": {"weights": {"deterministic": [0.6, 0.4]},
                 "children": [{"label": "A"}, {"label": "B"}]},
        "preferences": {"per_criterion": {"A": {"shape": "u-shape", "q": q}}},
        "profiles": {"default": [10, 5, 0]},
        "alternatives": {"a": {"A": 5.8, "B": 4}},
    }
    draws = 4000
    res = run_smaa(parse_problem(doc), iterations=draws, seed=0)
    assert res.boundary_violations == 0
    assert abs(res.category_index[0, 0] - share) <= 4 * math.sqrt(share * (1 - share) / draws)


def test_worker_error_surfaces_without_an_in_process_rerun(walkthrough, monkeypatch):
    parent_calls = []

    def failing_simulate(self, start, count):
        parent_calls.append((start, count))
        raise ValueError("simulate failed")

    monkeypatch.setattr(ProblemRuntime, "simulate", failing_simulate)
    with pytest.raises(ValueError, match="simulate failed"):
        # two blocks, so two spans and a pool
        run_smaa(walkthrough, iterations=2 * BLOCK, seed=0, threads=2)
    # forked workers append to their own copies of the list, so an entry
    # here means the iterations were rerun in this process
    assert parent_calls == []


def test_all_rules_agree_on_the_walkthrough(walkthrough):
    for rule in ("positive", "negative", "net"):
        res = run_smaa(walkthrough, iterations=10, seed=0, rule=rule)
        assert res.category_index.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert res.rule == rule


def test_deterministic_result_requires_deterministic_weights(walkthrough_doc):
    problem = variant(walkthrough_doc, **{"tree.weights": {"ordinal": [1, 2]}})
    with pytest.raises(InputError) as err:
        deterministic_result(problem)
    assert err.value.code == WEIGHT_SPEC


# ---------------------------------------------------------------------------
# Boundary violations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def glued_to_worst(walkthrough_doc):
    """A third alternative sitting exactly on the worst profile, which ties
    its net and positive flows and lands outside the strict bracket."""
    doc = copy.deepcopy(walkthrough_doc)
    doc["alternatives"]["x3"] = {
        "G1/g11": 0, "G1/g12": 10, "G2/g21": 0, "G2/g22": 0}
    return parse_problem(doc)


def test_violations_are_counted_not_hidden(glued_to_worst):
    res = run_smaa(glued_to_worst, iterations=40, seed=0)
    # x3 goes unbracketed in the overall tally and in all six node tallies
    assert res.boundary_violations == 40 * 7
    assert res.category_index[2].sum() == 0.0          # nothing tallied for x3
    assert res.node_index[:, 2].sum() == 0.0
    assert res.category_index[0].tolist() == [1.0, 0.0]
    assert res.category_index[1].tolist() == [0.0, 1.0]


def test_strict_mode_raises_on_violation(glued_to_worst):
    with pytest.raises(BoundaryViolation):
        run_smaa(glued_to_worst, iterations=5, seed=0, strict=True)


def test_deterministic_result_counts_violations(glued_to_worst):
    res = deterministic_result(glued_to_worst)
    # x3: the overall cell and all six node cells go unbracketed
    assert res.boundary_violations == 7
    assert res.category_index[2].sum() == 0.0
    assert res.node_index[:, 2].sum() == 0.0
    assert res.category_index[:2].tolist() == [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(BoundaryViolation):
        deterministic_result(glued_to_worst, strict=True)


def test_negative_rule_tolerates_the_worst_profile_tie(glued_to_worst):
    res = run_smaa(glued_to_worst, iterations=40, seed=0, rule="negative")
    # the overall tally accepts the tie; the net-style node diagnostics
    # still skip their six cells per iteration
    assert res.category_index[2].tolist() == [0.0, 1.0]
    assert res.boundary_violations == 40 * 6


def test_defuzz_method_is_recorded(walkthrough):
    res = run_smaa(walkthrough, iterations=5, seed=0, defuzz="spread-sum")
    assert res.defuzz == "spread-sum"
    assert res.category_index.tolist() == [[1.0, 0.0], [0.0, 1.0]]
