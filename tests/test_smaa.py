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
import itertools
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smaaflow import (
    TFN,
    BoundaryViolation,
    InputError,
    InvariantError,
    PreferenceSpec,
    ProfileSet,
    SamplingError,
    assign,
    flow_bundle,
    run_smaa,
)
from smaaflow.errors import BOUNDARY, WEIGHT_SPEC
from smaaflow import flows as flows_module
from smaaflow import smaa as smaa_module
from smaaflow.flows import RULES, BatchEngine, bracket, profile_envelope
from smaaflow.fuzzy import DEFUZZ_METHODS
from smaaflow.model_io import (
    dump_problem,
    fixture_path,
    load_problem,
    parse_problem,
    write_report,
)
from smaaflow.smaa import (
    BLOCK,
    MAX_WORKERS,
    ProblemRuntime,
    _split,
    deterministic_result,
    iteration_rng,
    sample_profiles,
    sample_thresholds,
    sample_value,
)

import oracles
from conftest import block_data

ROOT = Path(__file__).resolve().parent.parent
SAMPLED_INPUTS = ROOT / "tests" / "data" / "sampled_inputs.json"


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


def test_blocks_without_draws_make_no_generator(walkthrough, walkthrough_doc, monkeypatch):
    # fixed weights and data draw nothing, so no block builds a generator
    # (nor loads numpy's random module); one sampled weight group draws
    # from every block's substream
    blocks = []
    real = smaa_module.iteration_rng
    monkeypatch.setattr(smaa_module, "iteration_rng",
                        lambda seed, index: blocks.append(index) or real(seed, index))
    deterministic_result(walkthrough)
    run_smaa(walkthrough, iterations=2 * BLOCK, seed=3)
    assert blocks == []
    run_smaa(variant(walkthrough_doc, **{"tree.weights": {"ordinal": [1, 2]}}),
             iterations=2 * BLOCK, seed=3)
    assert blocks == [0, 1]


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


def test_numpy_integer_seed_reads_as_the_python_int(stochastic_walkthrough):
    # a numpy seed is masked to 64 bits like a Python one, so it draws the
    # same substreams and writes the same reports
    assert (iteration_rng(np.int64(-1), 0).random(4).tobytes()
            == iteration_rng(-1, 0).random(4).tobytes())
    reports = []
    for seed in (3, np.int64(3)):
        res = run_smaa(stochastic_walkthrough, iterations=BLOCK + 5, seed=seed)
        reports.append([write_report(res, stochastic_walkthrough, level="all-nodes", fmt=fmt)
                        for fmt in ("text", "csv")])
    assert reports[0] == reports[1]


def test_thread_count_does_not_change_results(walkthrough_doc, stochastic_walkthrough,
                                              glued_missing):
    missing = variant(walkthrough_doc, **{"tree.weights": {"missing": True}})
    # an uneven split, and more threads than blocks; sampled weights, then
    # sampled evaluations, thresholds and profiles, then violations counted
    # on fixed node rows under sampled root weights, then normal profile
    # levels and thresholds split 2/1/1 blocks
    cases = ((missing, 600, 4), (missing, 3 * BLOCK + 5, 2), (missing, 3 * BLOCK + 5, 8),
             (stochastic_walkthrough, 3 * BLOCK + 5, 2), (glued_missing, 3 * BLOCK + 5, 2),
             (load_problem(SAMPLED_INPUTS), 3 * BLOCK + 5, 3))
    for problem, iterations, threads in cases:
        serial = run_smaa(problem, iterations=iterations, seed=9, threads=1)
        threaded = run_smaa(problem, iterations=iterations, seed=9, threads=threads)
        assert serial.category_index.tobytes() == threaded.category_index.tobytes()
        assert serial.node_index.tobytes() == threaded.node_index.tobytes()
        assert serial.boundary_violations == threaded.boundary_violations

    # the last split is capped at the most workers a pool takes on Windows
    for iterations, threads in [case[1:] for case in cases] + [(100 * BLOCK, 64)]:
        spans = _split(iterations, threads)
        assert len(spans) == min(threads, -(-iterations // BLOCK), MAX_WORKERS)
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


def test_worker_error_surfaces_without_an_in_process_rerun(glued_missing, monkeypatch):
    parent_calls = []
    simulate = ProblemRuntime.simulate

    def spy(self, start, count):
        parent_calls.append((start, count))
        return simulate(self, start, count)

    monkeypatch.setattr(ProblemRuntime, "simulate", spy)
    with pytest.raises(BoundaryViolation) as err:
        # two blocks, so two spans and a pool
        run_smaa(glued_missing, iterations=2 * BLOCK, seed=0, threads=2, strict=True)
    assert err.value.code == BOUNDARY
    # a worker that inherits the spy appends to its own copy of the list,
    # so an entry here means the iterations ran in this process
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


def glued_doc(walkthrough_doc):
    doc = copy.deepcopy(walkthrough_doc)
    doc["alternatives"]["x3"] = {
        "G1/g11": 0, "G1/g12": 10, "G2/g21": 0, "G2/g22": 0}
    return doc


@pytest.fixture(scope="module")
def glued_to_worst(walkthrough_doc):
    """A third alternative sitting exactly on the worst profile, which ties
    its net and positive flows and lands outside the strict bracket."""
    return parse_problem(glued_doc(walkthrough_doc))


@pytest.fixture(scope="module")
def glued_missing(walkthrough_doc):
    """``glued_to_worst`` with sampled root weights: its node cells are
    fixed rows, bracketed once per block, while the whole tree varies."""
    doc = glued_doc(walkthrough_doc)
    doc["tree"]["weights"] = {"missing": True}
    return parse_problem(doc)


def test_violations_are_counted_not_hidden(glued_to_worst, glued_missing):
    for problem in (glued_to_worst, glued_missing):
        res = run_smaa(problem, iterations=40, seed=0)
        # x3 goes unbracketed in the overall tally and in all six node tallies
        assert res.boundary_violations == 40 * 7
        assert res.category_index[2].sum() == 0.0          # nothing tallied for x3
        assert res.node_index[:, 2].sum() == 0.0
        assert res.category_index[0].tolist() == [1.0, 0.0]
    # x2's category follows the first-level weights, which glued_missing samples
    res = run_smaa(glued_to_worst, iterations=40, seed=0)
    assert res.category_index[1].tolist() == [0.0, 1.0]


@pytest.mark.parametrize("name, violations", [
    ("glued_to_worst", 40 * 7),
    ("case_study_interval", 0),
])
def test_a_run_counts_into_one_vector_laid_out_like_the_engine(name, violations, request,
                                                                monkeypatch):
    # the m * k cells of each node in tree order, then the whole tree's, as
    # the engine numbers it, then the unbracketed entries: a run's indices
    # and violations are that vector, reshaped
    if name == "glued_to_worst":
        problem = request.getfixturevalue(name)
    else:
        problem = workload(name, monkeypatch)
    nodes, m, k = (len(problem.tree.nodes), len(problem.alternative_names),
                   len(problem.categories))
    counts = ProblemRuntime(problem, "net", "centroid", seed=0, strict=False).simulate(0, 40)
    assert counts.dtype == np.int64 and counts.shape == ((nodes + 1) * m * k + 1,)
    index = counts[:-1].reshape(nodes + 1, m, k) / 40
    res = run_smaa(problem, iterations=40, seed=0)
    assert index[:-1].tolist() == res.node_index.tolist()
    assert index[-1].tolist() == res.category_index.tolist()
    assert counts[-1] == res.boundary_violations == violations


def test_strict_mode_raises_on_violation(glued_to_worst, glued_missing):
    for problem in (glued_to_worst, glued_missing):
        with pytest.raises(BoundaryViolation):
            run_smaa(problem, iterations=5, seed=0, strict=True)


def windowed_glued(walkthrough_doc, monkeypatch):
    """A strict runtime of ``glued_to_worst`` with one drawn evaluation, so
    that every draw goes unbracketed, in windows of 8 draws, and a spy list
    of the draws each built window holds."""
    doc = glued_doc(walkthrough_doc)
    doc["alternatives"]["x1"]["G1/g11"] = [7, 9]
    # the net tables of 8 draws: 8 bytes for each of 3 * 4 pairs on 4 leaves
    monkeypatch.setattr(flows_module, "CHUNK_BYTES", 8 * 8 * 12 * 4)
    state = ProblemRuntime(parse_problem(doc), "net", "centroid", seed=0, strict=True)
    assert state.window == 8
    built, pref_components = [], state.engine.pref_components

    def spy(prefs, evals, profiles, defuzz):
        built.append(len(evals))
        return pref_components(prefs, evals, profiles, defuzz)

    monkeypatch.setattr(state.engine, "pref_components", spy)
    return state, built


def test_strict_block_raises_its_violation_after_its_last_window(walkthrough_doc, monkeypatch):
    # a violation in every window of a strict block: the block still
    # builds and counts every window, and raises only then
    state, built = windowed_glued(walkthrough_doc, monkeypatch)
    with pytest.raises(BoundaryViolation, match="block starting at 0"):
        state.simulate(0, 20)
    assert built == [8, 8, 4]


def test_strict_block_raises_a_later_windows_order_fault_first(walkthrough_doc, monkeypatch):
    # the last draw of a strict block gets its profiles in reverse order, so
    # its window's profile flows rise: that order fault raises, though every
    # earlier window already went unbracketed
    state, built = windowed_glued(walkthrough_doc, monkeypatch)
    sample_data = state._sample_data

    def reversed_last(rng, size):
        prefs, cells, profiles = sample_data(rng, size)
        profiles = np.array(profiles)
        profiles[-1] = profiles[-1, ::-1]
        return prefs, cells, profiles

    monkeypatch.setattr(state, "_sample_data", reversed_last)
    with pytest.raises(InvariantError, match="net profile flows are not non-increasing"):
        state.simulate(0, 20)
    assert built == [8, 8, 4]


#: Runs in a fresh interpreter under the start method ``argv[1]`` and
#: prints what the start-method gate checks as JSON.
START_METHOD_PROBE = """
import json, multiprocessing, os, sys

multiprocessing.set_start_method(sys.argv[1], force=True)
forks = []
os.register_at_fork(before=lambda: forks.append(1))

from smaaflow import BoundaryViolation, run_smaa
from smaaflow.model_io import load_problem
from smaaflow.smaa import BLOCK, ProblemRuntime

sampled = load_problem(sys.argv[2])
one, two = (run_smaa(sampled, iterations=3 * BLOCK + 5, seed=9, threads=threads)
            for threads in (1, 2))
parent_calls = []
simulate = ProblemRuntime.simulate

def spy(self, start, count):
    parent_calls.append((start, count))
    return simulate(self, start, count)

ProblemRuntime.simulate = spy
try:
    run_smaa(load_problem(sys.argv[3]), iterations=2 * BLOCK, seed=0, threads=2, strict=True)
    strict = None
except BoundaryViolation as err:
    strict = err.code
print(json.dumps({
    "identical": [one.category_index.tobytes() == two.category_index.tobytes(),
                  one.node_index.tobytes() == two.node_index.tobytes()],
    "violations": [one.boundary_violations, two.boundary_violations],
    "strict": strict,
    "parent_calls": len(parent_calls),
    "forks": len(forks),
}))
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_workers_need_no_fork(method, glued_missing, tmp_path):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    glued = tmp_path / "glued_missing.json"
    glued.write_text(dump_problem(glued_missing), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-c", START_METHOD_PROBE, method, str(SAMPLED_INPUTS), str(glued)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["identical"] == [True, True]
    assert probe["violations"][0] == probe["violations"][1]
    # the strict violation came from a worker: this process ran no simulate
    assert probe["strict"] == BOUNDARY and probe["parent_calls"] == 0
    # and nothing forked this process
    assert probe["forks"] == 0


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


def test_sampled_components_follow_the_defuzzification(walkthrough_doc):
    # the stochastic walkthrough with two fuzzy evaluations of x2 next to
    # the middle profile: the two defuzzifications sort x2 differently, and
    # under each one run_smaa's tally equals a replay of the same data draws
    # through the flat oracle, one draw at a time
    linear = {"shape": "linear", "q": [0, 0.5], "p": [1, 2]}
    profiles = copy.deepcopy(walkthrough_doc["profiles"]["per_criterion"])
    profiles["G2/g21"] = [20, [8, 12], 0]
    problem = variant(walkthrough_doc, **{
        "alternatives": {
            "x1": {"G1/g11": [7, 9], "G1/g12": [0.5, 2], "G2/g21": [14, 18], "G2/g22": [25, 29]},
            "x2": {"G1/g11": {"tfn": [6, 2, 2]}, "G1/g12": [2, 4], "G2/g21": [6, 14],
                   "G2/g22": {"tfn": [15, 3, 3]}},
        },
        "preferences": {"default": linear,
                        "per_criterion": {"G1/g12": dict(linear, direction="minimize")}},
        "profiles.per_criterion": profiles,
    })
    draws, seed = 200, 3
    weights = problem.tree.deterministic_weights()
    chains = [tuple(weights[path[:k]] for k in range(1, len(path) + 1))
              for path in problem.tree.elementary_paths]
    x2_c1 = {}
    for defuzz in DEFUZZ_METHODS:
        res = run_smaa(problem, iterations=draws, seed=seed, defuzz=defuzz)
        assert res.boundary_violations == 0
        state = ProblemRuntime(problem, "net", defuzz, seed, strict=False)
        prefs, evals, levels = block_data(state, iteration_rng(seed, 0), draws)
        hits = np.zeros(res.category_index.shape)
        for j in range(draws):
            flat = [(chain, {"shape": mdl.shape, "q": prefs.q[t, j], "p": prefs.p[t, j],
                             "s": mdl.s, "direction": mdl.direction})
                    for t, (chain, mdl) in enumerate(zip(chains, problem.preference_models))]
            prof = [[tuple(v) for v in row] for row in levels[j]]
            for i, row in enumerate(evals[j]):
                cat = oracles.oracle_assignments(flat, prof, [tuple(v) for v in row], defuzz)[2]
                hits[i, cat - 1] += 1
        assert res.category_index.tolist() == (hits / draws).tolist()
        x2_c1[defuzz] = res.category_index[1, 0]
    assert x2_c1["spread-sum"] - x2_c1["centroid"] > 0.1


def oracle_cell(value):
    """``value`` as a cell of :func:`oracles.draw_data`."""
    if value.is_deterministic:
        f = value.resolved()
        return ("fixed", (f.m, f.alpha, f.beta))
    if value.kind == "interval":
        return ("interval", value.lo, value.hi)
    return ("normal", value.mean, value.sd, value.lo, value.hi)


def reference_draws(problem, rng, draws):
    """``draws`` data draws of ``problem`` by the flat reference, as
    ``_sample_data``'s ``q``, ``p``, evaluations and profiles; or the message
    of the failure that stops it."""
    models = [{"shape": mdl.shape, "direction": mdl.direction,
               "q": oracle_cell(mdl.q), "p": oracle_cell(mdl.p)}
              for mdl in problem.preference_models]
    try:
        out = oracles.draw_data(
            rng, [[oracle_cell(v) for v in row] for row in problem.profile_specs], models,
            [[oracle_cell(v) for v in row] for row in problem.evaluation_specs], draws)
    except oracles.SamplingFailure as exc:
        return str(exc)
    return tuple(np.array(part, dtype=float) for part in out)


def table_draws(problem, seed, draws):
    """``_sample_data``'s ``q``, ``p``, evaluations and profiles, or the
    message of its SamplingError."""
    state = ProblemRuntime(problem, "net", "centroid", seed, strict=False)
    try:
        prefs, evals, profiles = block_data(state, iteration_rng(seed, 0), draws)
    except SamplingError as exc:
        return str(exc)
    return prefs.q, prefs.p, evals, profiles


def test_data_draws_read_fixed_evaluations_once(walkthrough_doc, case_study, monkeypatch):
    # fixed, interval and normal cells mixed in both rows (crisp thresholds
    # and profiles draw nothing): a block's evaluations equal the flat
    # reference's, one value at a time in row-major order, yet no cell
    # reaches sample_value; the block draws them all from one table
    problem = variant(walkthrough_doc, **{"alternatives": {
        "x1": {"G1/g11": 8, "G1/g12": [0.5, 2], "G2/g21": {"tfn": [16, 2, 1]}, "G2/g22": [25, 29]},
        "x2": {"G1/g11": [6, 9], "G1/g12": {"normal": {"mean": 3, "sd": 0.5}},
               "G2/g21": [6, 14], "G2/g22": 12},
    }})
    draws = 40
    expected = reference_draws(problem, iteration_rng(5, 0), draws)[2]
    calls = []

    def counted(value, *args, **kwargs):
        calls.append(value.kind)
        return sample_value(value, *args, **kwargs)

    monkeypatch.setattr(smaa_module, "sample_value", counted)
    state = ProblemRuntime(problem, "net", "centroid", 5, strict=False)
    _, evals, _ = block_data(state, iteration_rng(5, 0), draws)
    assert np.array_equal(evals, expected)
    assert calls == []
    # static data resolves every cell at set-up, without sample_value
    del calls[:]
    ProblemRuntime(case_study, "net", "centroid", 0, strict=False)
    assert calls == []


LEAVES = ("G1/g11", "G1/g12", "G2/g21", "G2/g22")


def sampled_doc(walkthrough_doc, alternatives, leaves):
    """The walkthrough with ``alternatives`` rows and, per leaf, a profile
    column and a preference model from ``leaves``."""
    return variant(walkthrough_doc, **{
        "preferences.per_criterion": {leaf: model for leaf, (_, model) in zip(LEAVES, leaves)},
        "profiles.per_criterion": {leaf: column for leaf, (column, _) in zip(LEAVES, leaves)},
        "alternatives": {f"a{i}": dict(zip(LEAVES, row)) for i, row in enumerate(alternatives)},
    })


def enveloped(walkthrough_doc, alternatives, worst, best):
    """The walkthrough with usual maximized criteria whose worst and best
    profiles are intervals [0, worst] and [100 - best, 100] around a crisp
    middle one at 50: the profile envelope varies from draw to draw, and an
    evaluation interval low or high enough misses it on some draws."""
    column = [[100 - best, 100], 50, [0, worst]]
    return sampled_doc(walkthrough_doc, alternatives, [(column, {})] * len(LEAVES))


CELLS = st.one_of(
    st.integers(45, 55),
    st.tuples(st.floats(0, 95), st.floats(0, 5)).map(lambda t: [t[0], t[0] + t[1]]),
    st.tuples(st.floats(30, 70), st.floats(0.5, 20)).map(
        lambda t: {"normal": {"mean": t[0], "sd": t[1]}}),
)


def profile_level(base):
    """A profile level around ``base``: crisp, fuzzy, an interval that may
    overlap its neighbours' or an untruncated normal."""
    return st.one_of(
        st.just(base),
        st.just({"tfn": [base, 3, 3]}),
        st.tuples(st.floats(0, 50), st.floats(0, 50)).map(lambda t: [base - t[0], base + t[1]]),
        st.floats(1, 30).map(lambda sd: {"normal": {"mean": base, "sd": sd}}),
    )


def mirrored(level):
    """A maximized profile level on [0, 100] as the same level minimized."""
    if isinstance(level, list):
        return [100 - level[1], 100 - level[0]]
    if isinstance(level, dict) and "tfn" in level:
        m, alpha, beta = level["tfn"]
        return {"tfn": [100 - m, beta, alpha]}
    if isinstance(level, dict):
        return {"normal": dict(level["normal"], mean=100 - level["normal"]["mean"])}
    return 100 - level


Q = st.one_of(st.just(1), st.floats(0, 3).map(lambda w: [0, 1 + w]),
              st.floats(0.2, 2).map(lambda sd: {"normal": {"mean": 1, "sd": sd, "min": 0}}))
P = st.one_of(st.just(3), st.floats(0, 3).map(lambda w: [3 - w, 3 + w]),
              st.floats(0.2, 2).map(lambda sd: {"normal": {"mean": 3, "sd": sd, "min": 0.5}}))
MODELS = st.one_of(
    st.just({}),
    st.tuples(st.sampled_from(["level", "linear"]), Q, P).map(
        lambda t: {"shape": t[0], "q": t[1], "p": t[2]}),
    Q.map(lambda q: {"shape": "u-shape", "q": q}),
    P.map(lambda p: {"shape": "v-shape", "p": p}),
)


@st.composite
def leaf_inputs(draw):
    """One leaf's profile column, best level first, and preference model:
    maximized on levels near 100, 50 and 0, or minimized on the mirror."""
    column = [draw(profile_level(base)) for base in (100, 50, 0)]
    model = dict(draw(MODELS))
    if draw(st.booleans()):
        column = [mirrored(level) for level in column]
        model["direction"] = "minimize"
    return column, model


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(CELLS, min_size=4, max_size=4), min_size=1, max_size=4),
       leaves=st.lists(leaf_inputs(), min_size=4, max_size=4), seed=st.integers(0, 2**32),
       draws=st.integers(1, 40))
def test_table_sampler_equals_one_call_per_cell(walkthrough_doc, rows, leaves, seed, draws):
    # fixed, interval and normal evaluations in any order, under profile
    # columns and q/p thresholds that are fixed, interval or normal (columns
    # and level/linear pairs redrawn until ordered): every array of a block
    # of data draws equals the flat reference's, one value at a time, or
    # the SamplingError names the reference's first failing value
    problem = sampled_doc(walkthrough_doc, rows, leaves)
    want = reference_draws(problem, iteration_rng(seed, 0), draws)
    got = table_draws(problem, seed, draws)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        for part, expected in zip(got, want):
            assert np.array_equal(part, expected)


@pytest.mark.parametrize("normal_first", [True, False])
def test_empty_interval_names_its_cell_either_side_of_a_normal(walkthrough_doc, normal_first):
    # [1, 2] misses the envelope whenever the worst profile draws above 2,
    # and [97, 99] whenever the best one draws below 99: the message names
    # the first such cell in row-major order, whether a normal cell comes
    # before it or after it
    normal = {"normal": {"mean": 50, "sd": 5}}
    row = [normal, [1, 2], 50, [97, 99]] if normal_first else [[1, 2], normal, [97, 99], 50]
    problem = enveloped(walkthrough_doc, [[50, [40, 60], 50, 50], row], 4, 4)
    want = reference_draws(problem, iteration_rng(9, 0), 40)
    assert isinstance(want, str) and want.startswith("interval [1.0, 2.0] cannot reach bounds")
    assert table_draws(problem, 9, 40) == want


def two_leaves(profile, value, model=None):
    """Leaves A (weight 0.6) and B: A with its own profile column, its
    alternative's value and its preference model; B fixed."""
    return parse_problem({
        "schema": 1,
        "categories": ["good", "bad"],
        "tree": {"weights": {"deterministic": [0.6, 0.4]},
                 "children": [{"label": "A"}, {"label": "B"}]},
        "preferences": {"per_criterion": {"A": model or {}}},
        "profiles": {"default": [10, 5, 0], "per_criterion": {"A": profile}},
        "alternatives": {"a": {"A": value, "B": 4}},
    })


@pytest.mark.parametrize("profile, value, model, message", [
    ([10, 5, [0, 4]], [1, 2], None,
     "interval [1.0, 2.0] cannot reach bounds [3.7717502115315176, 10.0]"),
    ([10, 5, 0], {"normal": {"mean": 1000, "sd": 1}}, None,
     "normal(1000.0, 1.0) produced no draw inside [0.0, 10.0] after 10000 attempts"),
    ([10, 5, 0], 4, {"shape": "linear", "q": [0, 1], "p": [0, 1e-12]},
     "no admissible threshold pair (q < p) after 10000 attempts"),
    ([[0, 5.000000000001], 5, 0], 4, None,
     "no dominance-respecting profile draw on criterion 0 after 10000 attempts"),
], ids=["interval", "normal", "threshold-pair", "profile-column"])
def test_sampling_failures_keep_their_wording(profile, value, model, message):
    # an evaluation interval that misses the drawn envelope, a normal
    # evaluation that never lands in it, and a q/p pair and a profile column
    # each ordered about once in 10^12 draws
    with pytest.raises(SamplingError) as err:
        run_smaa(two_leaves(profile, value, model), iterations=1, seed=0)
    assert str(err.value) == message


def test_fixed_evaluations_reach_the_components_as_a_view(walkthrough_doc):
    # the walkthrough's crisp evaluations under sampled thresholds and
    # profiles: the block's evaluations are one read-only row seen by every
    # draw, not a copy per draw, and they give the tables of the copies
    problem = variant(walkthrough_doc, **{
        "preferences.default": {"shape": "linear", "q": [0, 0.5], "p": [1, 2]},
        "profiles.per_criterion.G2/g21": [20, [8, 12], 0],
    })
    state = ProblemRuntime(problem, "net", "centroid", seed=2, strict=False)
    assert state.static_components is None and not state.sampled_evals
    draws = 40
    prefs, evals, profiles = block_data(state, iteration_rng(2, 0), draws)
    assert evals.shape[0] == draws and evals.strides[0] == 0
    assert not evals.flags.writeable
    assert len(np.unique(prefs.q, axis=1).T) > 1 and len(np.unique(profiles, axis=0)) > 1
    copied = np.repeat(evals[:1], draws, axis=0)
    assert np.array_equal(state.engine.pref_components(prefs, evals, profiles, "centroid"),
                          state.engine.pref_components(prefs, copied, profiles, "centroid"))


def test_undrawn_profiles_and_thresholds_are_read_only_views(walkthrough_doc):
    # drawn evaluations under crisp profiles and thresholds: a block's
    # profiles, q and p are read-only views of the fixed ones, shared by
    # every draw, and they give the tables of copies
    problem = variant(walkthrough_doc, **{"alternatives.x1.G1/g11": [7, 9]})
    state = ProblemRuntime(problem, "net", "centroid", seed=2, strict=False)
    assert state.sampled_evals and not problem.sampled_profiles
    assert not state.sampled_thresholds
    draws = 40
    prefs, evals, profiles = block_data(state, iteration_rng(2, 0), draws)
    for undrawn, axis in ((profiles, 0), (prefs.q, 1), (prefs.p, 1)):
        assert undrawn.shape[axis] == draws and undrawn.strides[axis] == 0
        assert not undrawn.flags.writeable
    copies = prefs._replace(q=prefs.q.copy(), p=prefs.p.copy()), evals, profiles.copy()
    assert np.array_equal(state.engine.pref_components(prefs, evals, profiles, "centroid"),
                          state.engine.pref_components(*copies, "centroid"))


# ---------------------------------------------------------------------------
# Folded blocks
# ---------------------------------------------------------------------------


def block_tables(state, data):
    """The leaf tables of a block's data draw ``data`` (see
    ``ProblemRuntime.draw_block``) from one ``pref_components`` call over
    the whole block, or the shared table of static data."""
    if data is None:
        return state.static_components
    return state.engine.pref_components(*state._window_data(data, slice(None)), state.defuzz)


def unfolded_tally(state, components, w):
    """Counts of one block, in ``ProblemRuntime.simulate``'s layout, with
    every node summed and bracketed for every weight row, as if no row were
    fixed: every node under net, then the whole tree under the runtime's
    rule, then the unbracketed entries."""
    engine, m, k, n = state.engine, state.m, state.k, state.engine.n_pairs

    def flows(t):
        values = engine.aggregate(components[..., t * n:(t + 1) * n, :], w)
        return values.reshape(values.shape[:-1] + (m, k + 2))

    net = flows(0)
    cat, valid = bracket(net[..., 0], net[..., 1:], "net")
    own = flows(engine.tables.index(state.rule))[-1]
    cat[-1], valid[-1] = bracket(own[..., 0], own[..., 1:], state.rule)
    size = (state.n_nodes + 1) * m * k
    cells = (np.arange(state.n_nodes + 1)[:, None, None] * m + np.arange(m)) * k + cat - 1
    return np.bincount(np.where(valid, cells, size).ravel(), minlength=size + 1)


@pytest.mark.parametrize("name, groups, root_fixed", [
    ("case-study", (54, 0, 18), False),
    ("walkthrough-missing", (4, 2, 0), False),
    ("stochastic-walkthrough", (4, 2, 0), True),
])
def test_folded_block_tally_matches_the_unfolded_one(name, groups, root_fixed, case_study,
                                                     walkthrough_doc, stochastic_walkthrough):
    # ordinal groups over deterministic mid-level groups; fixed first-level
    # nodes under sampled root weights; per-draw components, so fixed rows
    # hold one row per draw and the fixed whole tree one too
    problem = {
        "case-study": case_study,
        "walkthrough-missing": variant(walkthrough_doc, **{"tree.weights": {"missing": True}}),
        "stochastic-walkthrough": stochastic_walkthrough,
    }[name]
    state = ProblemRuntime(problem, "net", "centroid", seed=3, strict=False)
    assert tuple(len(g) for g in state.engine.node_groups) == groups
    assert state.engine.root_fixed == root_fixed
    for block, bs in ((0, BLOCK), (BLOCK, 5)):
        data, w = state.draw_block(block, bs)
        got = state.tally_block(data, w, block)
        assert got.tolist() == unfolded_tally(state, block_tables(state, data), w).tolist()


def workload(name, monkeypatch):
    """A benchmark workload's problem at seed 0, by its function's name."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    return parse_problem(getattr(workloads, name)(0))


def test_a_drawn_block_holds_one_window_of_tables(monkeypatch):
    # the traced peak of one block of the interval case study, whose leaf
    # tables alone take 5.3 MB for the whole block: it builds and folds
    # them a window at a time (the whole block at once peaked at 12.2 MB)
    state = ProblemRuntime(workload("case_study_interval", monkeypatch), "net", "centroid",
                           seed=0, strict=False)
    state.simulate(0, 1)  # lazy set-up, such as the step tables, outside the trace
    tracemalloc.start()
    try:
        state.simulate(0, BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_a_warm_window_allocates_no_kernel_scratch(monkeypatch):
    # the traced peak of one 80-draw window of the interval case study,
    # after a first call on it: every kernel pass writes into the engine's
    # workspace, so the call allocates little beyond the tables it returns
    # (it allocated 2.2 MB more when each pass made its own scratch)
    state = ProblemRuntime(workload("case_study_interval", monkeypatch), "net", "centroid",
                           seed=0, strict=False)
    data = state._window_data(state.draw_block(0, BLOCK)[0], slice(0, state.window))
    assert len(data[1]) == state.window == 80
    state.engine.pref_components(*data, state.defuzz)  # the workspace and step tables
    tracemalloc.start()
    try:
        tables = state.engine.pref_components(*data, state.defuzz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - tables.nbytes < flows_module.CHUNK_BYTES // 2


def test_drawn_cells_keep_their_bounds_narrow(monkeypatch):
    # the interval case study draws its evaluation cells inside the fixed
    # profiles' envelope, one column of bounds for every draw: sampling a
    # block holds its draws (the cells alone take 0.9 MB), not (cells,
    # draws) bounds and masks besides (with those it peaked at 4.8 MB)
    state = ProblemRuntime(workload("case_study_interval", monkeypatch), "net", "centroid",
                           seed=0, strict=False)
    state._sample_data(iteration_rng(0, 0), BLOCK)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        state._sample_data(iteration_rng(0, 0), BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


@pytest.mark.parametrize("name", ["case_study_interval", "mixed_forms", "sampled_inputs"])
def test_windowed_tally_equals_the_whole_block_tally(name, monkeypatch):
    # drawn evaluations under fixed profiles, and drawn profiles and
    # thresholds: a block tallied window by window counts what one
    # pref_components call over the block's draw and an unfolded tally
    # count, under every rule and both defuzzifications, in a full block, a
    # short one and one that ends inside a window.  The small problems get
    # windows of at most 30 draws, the interval case study its own.
    if name == "case_study_interval":
        problem = workload(name, monkeypatch)
    else:
        problem = load_problem(ROOT / "tests" / "data" / f"{name}.json")
    for rule, defuzz in itertools.product(RULES, DEFUZZ_METHODS):
        state = ProblemRuntime(problem, rule, defuzz, seed=7, strict=False)
        if name != "case_study_interval":
            engine = state.engine
            monkeypatch.setattr(flows_module, "CHUNK_BYTES", 30 * 8 * len(engine.tables)
                                * engine.n_pairs * problem.tree.n_elementary)
            state = ProblemRuntime(problem, rule, defuzz, seed=7, strict=False)
        assert state.static_components is None and 100 % state.window
        for block, bs in ((0, BLOCK), (BLOCK, 5), (2 * BLOCK, 100)):
            data, w = state.draw_block(block, bs)
            got = state.tally_block(data, w, block)
            want = unfolded_tally(state, block_tables(state, data), w)
            assert got.tolist() == want.tolist(), (rule, defuzz, bs)


@pytest.mark.parametrize("name", ["synthetic_wide", "glued_missing"])
def test_windowed_static_tally_matches_the_unfolded_one(name, glued_missing, monkeypatch):
    # static data with varying nodes, and with only a varying whole tree
    # (x3 unbracketed everywhere): the fixed nodes counted once per run,
    # and a block's varying nodes and whole tree window by window, count
    # what an unfolded tally counts, under every rule, in a full block, a
    # short one and one that ends inside a window.  The budget gives each
    # block windows of about 40 weight rows, six per full block.  The
    # unfolded tally goes 32 weight rows at a time, which adds up to the
    # block's, since every row is counted on its own.
    problem = glued_missing if name == "glued_missing" else workload(name, monkeypatch)
    for rule in RULES:
        engine = ProblemRuntime(problem, rule, "centroid", seed=5, strict=False).engine
        monkeypatch.setattr(flows_module, "CHUNK_BYTES", 40 * 8 * (len(engine.varying) + 1)
                            * len(engine.tables) * engine.n_pairs)
        state = ProblemRuntime(problem, rule, "centroid", seed=5, strict=False)
        assert state.static_components is not None and not state.engine.root_fixed
        assert BLOCK // state.window >= 3 and 100 % state.window
        for block, bs in ((0, BLOCK), (BLOCK, 5), (2 * BLOCK, 100)):
            data, w = state.draw_block(block, bs)
            got = state.tally_block(data, w, block)
            want = sum(unfolded_tally(state, state.static_components, w[j:j + 32])
                       for j in range(0, bs, 32))
            assert got.tolist() == want.tolist(), (rule, bs)


def test_a_static_block_holds_one_window_of_node_rows(monkeypatch):
    # the traced peak of one static block of the wide synthetic problem,
    # whose varying and whole-tree rows alone take 5.2 MB for the whole
    # block: it folds them a window of weight rows at a time, and its
    # fixed nodes were folded and counted once, when the runtime was built
    # (folding and counting them per block peaked at 6.9 MB)
    state = ProblemRuntime(workload("synthetic_wide", monkeypatch), "net", "centroid",
                           seed=0, strict=False)
    data, w = state.draw_block(0, BLOCK)
    state.tally_block(data, w, 0)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        state.tally_block(data, w, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_500_000


# ---------------------------------------------------------------------------
# Whole-tree tables per rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["walkthrough", "synthetic_wide", "case_study_interval"])
def test_rule_tables_are_the_floats_of_all_tables(name, walkthrough, monkeypatch):
    # the walkthrough, a static problem with fixed inner nodes and one
    # stochastic block: each column of the whole tree's positive and
    # negative tables is summed on its own, so building one table, or
    # none, from the leaf tables the rule reads leaves every float as it
    # is when both are built from all three
    problem = walkthrough if name == "walkthrough" else workload(name, monkeypatch)
    state = ProblemRuntime(problem, "net", "centroid", seed=0, strict=False)
    block, w = state.draw_block(0, 16)
    components = block_tables(state, block)
    # the block's data draw again, the first draw from its substream
    static = state.static_components is not None
    data = block_data(state, None if static else iteration_rng(0, 0), 1 if static else 16)

    def tables(rule):
        engine = BatchEngine(problem.tree, state.m, state.c, rule)
        built = engine.pref_components(*data, "centroid")
        return engine, built[0] if static else built

    assert components.tobytes() == tables("net")[1].tobytes()
    full_engine, all_tables = tables(None)
    full = full_engine.flows(all_tables, w)
    for rule in RULES:
        engine, built = tables(rule)
        got = engine.flows(built, w)
        assert sorted(got.root) == sorted({"net", rule})
        for name, table in got.root.items():
            assert [a.tobytes() for a in table] == [a.tobytes() for a in full.root[name]]
        for group, want in zip(got.nodes, full.nodes):
            assert [a.tobytes() for a in group] == [a.tobytes() for a in want]
        cat, valid = engine.assign_overall(got, rule)
        want_cat, want_valid = full_engine.assign_overall(full, rule)
        assert np.array_equal(cat, want_cat) and np.array_equal(valid, want_valid)


# ---------------------------------------------------------------------------
# Tally oracle
# ---------------------------------------------------------------------------


def oracle_cell_value(t):
    """An oracle (m, alpha, beta) tuple as a document value."""
    return t[0] if t[1] == t[2] == 0 else {"tfn": list(t)}


def sampled_weight_spec(kind, rng, weights):
    """The weights of one sibling group as a spec of ``kind``: the
    instance's own, none, ranks with ties and free members, or boxes of
    +-0.3 around the instance's own."""
    if kind == "deterministic":
        return {"deterministic": weights}
    if kind == "missing":
        return {"missing": True}
    if kind == "ordinal":
        return {"ordinal": [rng.choice((None, 1, 2, 2, 3)) for _ in weights]}
    return {"interval": [[max(0.0, w - 0.3), min(1.0, w + 0.3)] for w in weights]}


def oracle_document(rng, inst):
    """A problem document of an oracle instance, its sibling groups' weight
    specs cycling through the four kinds from a random one, plus a twin of
    the worst profile, which ties its flows exactly; and the alternatives'
    rows."""
    paths = []
    kinds = itertools.islice(itertools.cycle(("deterministic", "missing", "ordinal", "interval")),
                             rng.randrange(4), None)

    def spec(nodes):
        return sampled_weight_spec(next(kinds), rng, [c["weight"] for c in nodes])

    def children(nodes, prefix):
        out = []
        for i, node in enumerate(nodes):
            entry = {"label": f"{prefix}{i + 1}"}
            path = f"{prefix}/{entry['label']}" if prefix else entry["label"]
            if node.get("children"):
                entry["weights"] = spec(node["children"])
                entry["children"] = children(node["children"], path)
            else:
                paths.append(path)
            out.append(entry)
        return out

    tree = {"weights": spec(inst["children"]),
            "children": children(inst["children"], "")}
    models = [model for _, model in inst["flat"]]
    # second, so that a cell it spilled into its neighbour's would show
    rows = inst["evals"][:1] + [inst["profiles"][-1]] + inst["evals"][1:]
    return {
        "schema": 1,
        "categories": [f"C{h + 1}" for h in range(inst["n_categories"])],
        "tree": tree,
        "preferences": {"per_criterion": dict(zip(paths, models))},
        "profiles": {"per_criterion": {
            path: [oracle_cell_value(level[t]) for level in inst["profiles"]]
            for t, path in enumerate(paths)}},
        "alternatives": {f"x{i + 1}": {path: oracle_cell_value(v) for path, v in zip(paths, row)}
                         for i, row in enumerate(rows)},
    }, rows


@pytest.mark.parametrize("seed", range(2))
def test_tally_equals_the_flat_oracle_replayed_draw_by_draw(seed):
    # small generated instances with sampled weight groups of every kind
    # and a twin of the worst profile, which only the negative rule
    # brackets: each block's weight rows replayed one draw at a time
    # through the flat oracle, with each leaf's chain the product of its
    # path's weights, count exactly the categories of run_smaa's overall
    # index under every rule and both defuzzifications, and the draws it
    # cannot bracket are exactly the cells missing from the rows.  Each
    # node's net flows, from the chains cut below the node, count exactly
    # its per-node index, which no rule changes.
    rng = random.Random(9100 + seed)
    inst = oracles.random_instance(rng, fuzzy=seed % 2 == 1, max_depth=2, n_categories=2 + seed,
                                   shapes=("usual", "linear", "v-shape", "u-shape", "level",
                                           "gaussian"))
    doc, rows = oracle_document(rng, inst)
    problem = parse_problem(doc)
    tree, iterations = problem.tree, BLOCK + 3
    chains = [[tree.node_index[path[:d]] for d in range(1, len(path) + 1)]
              for path in tree.elementary_paths]
    state = ProblemRuntime(problem, "net", "centroid", seed, strict=False)
    w = np.concatenate([state.draw_block(block, min(BLOCK, iterations - block))[1]
                        for block in range(0, iterations, BLOCK)])
    models = [model for _, model in inst["flat"]]
    # per node: its depth and the leaves under it
    subtrees = [(len(node.path), [t for t, path in enumerate(tree.elementary_paths)
                                  if path[:len(node.path)] == node.path])
                for node in tree.nodes]
    for defuzz in DEFUZZ_METHODS:
        hits = np.zeros((3, len(rows), inst["n_categories"]), dtype=np.int64)
        node_hits = np.zeros((len(tree.nodes), len(rows), inst["n_categories"]), dtype=np.int64)
        node_cats = {}  # a node's categories, by its weights below it
        for row in w:
            flat = [(tuple(row[chain]), model) for chain, model in zip(chains, models)]
            for i, x in enumerate(rows):
                for r, cat in enumerate(oracles.oracle_assignments(flat, inst["profiles"], x,
                                                                    defuzz)):
                    if cat is not None:
                        hits[r, i, cat - 1] += 1
            for r, (depth, leaves) in enumerate(subtrees):
                cut = [(tuple(row[chain[depth - 1:]]), model)
                       for chain, model in zip(chains, models)]
                key = (r, tuple(cut[t][0][1:] for t in leaves))
                if key not in node_cats:
                    node_cats[key] = [oracles.assign_descending(*oracles.subtree_flows(
                        cut, inst["profiles"], x, leaves, defuzz)) for x in rows]
                for i, cat in enumerate(node_cats[key]):
                    if cat is not None:
                        node_hits[r, i, cat - 1] += 1
        node_index = []
        for r, rule in enumerate(("positive", "negative", "net")):
            res = run_smaa(problem, iterations=iterations, seed=seed, rule=rule, defuzz=defuzz)
            assert res.category_index.tolist() == (hits[r] / iterations).tolist()
            missing = iterations - np.rint(res.category_index * iterations).sum(axis=1)
            want = [0] * len(rows)
            want[1] = 0 if rule == "negative" else iterations
            assert missing.tolist() == want
            assert (iterations - hits[r].sum(axis=1)).tolist() == want
            assert res.node_index.tolist() == (node_hits / iterations).tolist()
            node_index.append(res.node_index.tobytes())
        assert len(set(node_index)) == 1


def sampled_oracle_document():
    """A generated instance, its :func:`oracle_document` with sampled data
    and the alternatives' rows.  About a third of the cells of each
    alternative but the profile twin become intervals and a third
    truncated normals, all between the worst and the best profile mode
    with the margins of ``oracles.random_instance``; the best level of one
    criterion becomes an interval of +-0.2 around its mode, which keeps
    its column ordered; and the first linear leaf gets an interval q and
    p that overlap, so its pair is redrawn until q < p."""
    rng = random.Random(9313)
    inst = oracles.random_instance(rng, max_depth=2, n_categories=2,
                                   shapes=("usual", "linear", "level", "gaussian"))
    doc, rows = oracle_document(rng, inst)
    paths = list(doc["profiles"]["per_criterion"])
    for t, (path, (_, model)) in enumerate(zip(paths, inst["flat"])):
        sign = 1 if model["direction"] == "maximize" else -1
        lo, hi = sorted((inst["profiles"][-1][t][0] + sign * (model["q"] + 0.7),
                         inst["profiles"][0][t][0] - sign * 0.65))
        for name, cells in doc["alternatives"].items():
            kind = rng.randrange(3)
            if name == "x2" or kind == 0:
                continue
            a, b = sorted(rng.uniform(lo, hi) for _ in range(2))
            cells[path] = [a, b] if kind == 1 else {"normal": {
                "mean": rng.uniform(lo, hi), "sd": rng.uniform(0.2, 2.0), "min": lo, "max": hi}}
    t = rng.randrange(len(paths))
    best = inst["profiles"][0][t][0]
    doc["profiles"]["per_criterion"][paths[t]][0] = [best - 0.2, best + 0.2]
    path, model = next((path, model) for path, (_, model) in zip(paths, inst["flat"])
                       if model["shape"] == "linear")
    doc["preferences"]["per_criterion"][path] = dict(model, q=[0.0, model["p"]],
                                                     p=[model["q"], model["p"]])
    return inst, doc, rows


def test_sampled_data_tally_equals_the_flat_oracle_replayed_draw_by_draw():
    # a generated document with interval and normal evaluations, an
    # interval profile level and an interval linear threshold pair: each
    # block's data drawn again by the flat reference sampler, and its
    # weight rows, replayed one draw at a time through the flat oracle,
    # count exactly run_smaa's overall index under every rule and its
    # per-node index
    seed, (inst, doc, rows) = 4, sampled_oracle_document()
    problem = parse_problem(doc)
    tree, iterations = problem.tree, BLOCK + 3
    chains = [[tree.node_index[path[:d]] for d in range(1, len(path) + 1)]
              for path in tree.elementary_paths]
    subtrees = [(len(node.path), [t for t, path in enumerate(tree.elementary_paths)
                                  if path[:len(node.path)] == node.path])
                for node in tree.nodes]
    state = ProblemRuntime(problem, "net", "centroid", seed, strict=False)
    hits = np.zeros((3, len(rows), inst["n_categories"]), dtype=np.int64)
    node_hits = np.zeros((len(tree.nodes), len(rows), inst["n_categories"]), dtype=np.int64)
    for block in range(0, iterations, BLOCK):
        bs = min(BLOCK, iterations - block)
        q, p, evals, levels = reference_draws(problem, iteration_rng(seed, block // BLOCK), bs)
        w = state.draw_block(block, bs)[1]
        for j, row in enumerate(w):
            models = [{"shape": mdl.shape, "q": q[t, j], "p": p[t, j], "s": mdl.s,
                       "direction": mdl.direction}
                      for t, mdl in enumerate(problem.preference_models)]
            flat = [(tuple(row[chain]), model) for chain, model in zip(chains, models)]
            prof = [[tuple(v) for v in level] for level in levels[j]]
            alts = [[tuple(v) for v in x] for x in evals[j]]
            for i, x in enumerate(alts):
                for r, cat in enumerate(oracles.oracle_assignments(flat, prof, x)):
                    if cat is not None:
                        hits[r, i, cat - 1] += 1
            for r, (depth, leaves) in enumerate(subtrees):
                cut = [(tuple(row[chain[depth - 1:]]), model)
                       for chain, model in zip(chains, models)]
                for i, x in enumerate(alts):
                    cat = oracles.assign_descending(*oracles.subtree_flows(cut, prof, x, leaves))
                    if cat is not None:
                        node_hits[r, i, cat - 1] += 1
    for r, rule in enumerate(("positive", "negative", "net")):
        res = run_smaa(problem, iterations=iterations, seed=seed, rule=rule)
        assert res.category_index.tolist() == (hits[r] / iterations).tolist()
        assert res.node_index.tolist() == (node_hits / iterations).tolist()


@pytest.mark.parametrize("seed", [0, 7])
def test_sampled_document_reports_do_not_depend_on_threads(seed):
    # the generated document of the sampled-data tally gate, split over
    # one, two and three workers: its all-nodes reports are the same bytes
    problem = parse_problem(sampled_oracle_document()[1])
    reports = set()
    for threads in (1, 2, 3):
        res = run_smaa(problem, iterations=3 * BLOCK + 5, seed=seed, threads=threads)
        reports.add(tuple(write_report(res, problem, level="all-nodes", fmt=fmt)
                          for fmt in ("text", "csv")))
    assert len(reports) == 1
