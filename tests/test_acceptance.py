"""End-to-end acceptance suite.

One test per criterion, each printing a single PASS line (visible with
``pytest tests/test_acceptance.py -v -s``) so the whole gate reads as a
checklist.  Numeric targets and tolerances are stated inline.
"""

import copy
import json
import math
import random
import time

import numpy as np
import pytest

from smaaflow import run_smaa
from smaaflow.flows import (
    alternative_flows,
    assignments,
    flow_bundle,
    profile_flows,
    single_criterion_assignment,
    single_criterion_flows,
)
from smaaflow.model_io import (
    fixture_path,
    load_problem,
    parse_problem,
    write_report,
)
from smaaflow.smaa import (
    deterministic_result,
    iteration_rng,
    sample_group_weights,
    sample_weights_interval,
    sample_weights_missing,
    sample_weights_ordinal,
)

import corpus
import oracles


def _ok(n, message):
    print(f"PASS criterion {n}: {message}")


def _walkthrough_pieces(problem):
    tree = problem.tree
    return (tree, tree.deterministic_weights(), problem.resolved_preferences(),
            problem.resolved_profile_set())


def corpus_instances(count, seed, **kwargs):
    rng = random.Random(seed)
    return [oracles.random_instance(rng, fuzzy=bool(i % 2), **kwargs)
            for i in range(count)]


# the corpus shared by criteria 3 and 5: 2-4 levels, 2-6 children,
# 2-5 categories, usual and linear preference shapes
CORPUS_SEED = 20260823


@pytest.fixture(scope="module")
def oracle_corpus():
    return corpus_instances(200, CORPUS_SEED)


@pytest.fixture(scope="module")
def case_study_runs(case_study):
    t0 = time.perf_counter()
    first = run_smaa(case_study, iterations=10_000, seed=0, threads=1)
    elapsed = time.perf_counter() - t0
    second = run_smaa(case_study, iterations=10_000, seed=0, threads=1)
    threaded = run_smaa(case_study, iterations=10_000, seed=0, threads=4)
    return {"first": first, "second": second, "threaded": threaded,
            "elapsed": elapsed}


def test_criterion_01_walkthrough_golden_flows(walkthrough):
    t0 = time.perf_counter()
    tree, weights, prefs, profiles = _walkthrough_pieces(walkthrough)
    x1, x2 = walkthrough.evaluation_tfns("x1"), walkthrough.evaluation_tfns("x2")

    f1 = alternative_flows(tree, weights, prefs, profiles, x1)
    f2 = alternative_flows(tree, weights, prefs, profiles, x2)
    p1 = [t.net for t in profile_flows(tree, weights, prefs, profiles, x1)]
    p2 = [t.net for t in profile_flows(tree, weights, prefs, profiles, x2)]
    elapsed = time.perf_counter() - t0

    assert f1.plus == pytest.approx(0.667, abs=1e-3)
    assert f1.minus == pytest.approx(0.333, abs=1e-3)
    assert f1.net == pytest.approx(0.333, abs=1e-3)
    assert f2.plus == pytest.approx(0.433, abs=1e-3)
    assert f2.minus == pytest.approx(0.567, abs=1e-3)
    assert f2.net == pytest.approx(-0.133, abs=1e-3)
    assert p1 == pytest.approx([1.0, -0.333, -1.0], abs=1e-3)
    assert p2 == pytest.approx([1.0, 0.133, -1.0], abs=1e-3)
    assert elapsed < 1.0
    _ok(1, f"walkthrough flows match within ±0.001 in {elapsed * 1000:.0f} ms")


def test_criterion_02_walkthrough_assignments(walkthrough):
    tree, weights, prefs, profiles = _walkthrough_pieces(walkthrough)
    x1, x2 = walkthrough.evaluation_tfns("x1"), walkthrough.evaluation_tfns("x2")

    a1 = assignments(flow_bundle(tree, weights, prefs, profiles, x1))
    assert (a1.by_positive, a1.by_negative, a1.by_net) == (1, 1, 1)
    a2 = assignments(flow_bundle(tree, weights, prefs, profiles, x2))
    assert a2.by_net == 2

    singles = {}
    for path in [(1,), (2,), (2, 1), (2, 2)]:
        sc = single_criterion_flows(tree, weights, prefs, profiles, x2, path)
        singles[path] = single_criterion_assignment(sc)
    assert singles == {(1,): 1, (2,): 2, (2, 1): 2, (2, 2): 2}
    _ok(2, "x1 all-rules C1, x2 net C2, single-criterion diagnostics exact")


def test_criterion_03_flatten_oracle_equivalence(oracle_corpus):
    worst = max(corpus.triangle_gap(inst) for inst in oracle_corpus)
    assert worst < 1e-12
    _ok(3, f"200 hierarchical instances equal the flat oracle "
           f"(max gap {worst:.2e})")


def test_criterion_04_profile_flow_monotonicity():
    rng = random.Random(7 * CORPUS_SEED)
    margins = []
    for i in range(1000):
        inst = oracles.random_instance(rng, fuzzy=bool(i % 2),
                                       max_depth=rng.randint(2, 3))
        margins.append(corpus.ordering_margins(inst))
    assert min(margins) > 0
    _ok(4, f"1000/1000 dominance-respecting instances strictly ordered "
           f"(min margin {min(margins):.3f})")


def test_criterion_05_decomposition_identity(oracle_corpus):
    worst = max(corpus.decomposition_gap(inst) for inst in oracle_corpus)
    assert worst < 1e-9
    _ok(5, f"net flow equals weighted first-level flows (max gap {worst:.2e})")


def test_criterion_06_sampler_statistics():
    t0 = time.perf_counter()
    draws = 100_000

    n = 5
    w = sample_weights_missing(n, iteration_rng(1, 11), size=draws)
    se = math.sqrt((n - 1) / (n * n * (n + 1)) / draws)
    mean_err = np.abs(w.mean(axis=0) - 1 / n).max()
    assert mean_err < 3 * se

    ranks = [2, 2, 3, 4, 1]
    w = sample_weights_ordinal(ranks, iteration_rng(1, 1), size=draws)
    order_violations = int(((w[:, 4] < w[:, 0]) | (w[:, 0] < w[:, 2])
                            | (w[:, 2] < w[:, 3])).sum())
    tie_breaks = int((w[:, 0] != w[:, 1]).sum())
    assert order_violations == 0
    assert tie_breaks == 0

    bounds = [(0.5, 0.7), (0.3, 0.5)]
    w = sample_weights_interval(bounds, iteration_rng(1, 2), size=draws)
    bound_violations = int(((w < [0.5, 0.3]) | (w > [0.7, 0.5])).sum())
    assert bound_violations == 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(6, f"3x100k draws in {elapsed:.2f} s; mean error {mean_err:.2e} "
           f"< 3 SE, 0 order / tie / bound violations")


def test_criterion_07_degenerate_acceptability(walkthrough):
    fixed = deterministic_result(walkthrough)
    for iters in (7, 50, 200):
        res = run_smaa(walkthrough, iterations=iters, seed=2)
        assert np.array_equal(res.category_index, fixed.category_index)
        assert np.array_equal(res.node_index, fixed.node_index)
        assert ((res.category_index == 0) | (res.category_index == 1)).all()
        assert np.allclose(res.category_index.sum(axis=-1), 1.0, atol=1e-9)
        assert np.allclose(res.node_index.sum(axis=-1), 1.0, atol=1e-9)
    _ok(7, "zero-variance rows are unit vectors at any iteration count, "
           "rows sum to 1")


def test_criterion_08_report_determinism(walkthrough):
    with open(fixture_path("walkthrough")) as fh:
        doc = json.load(fh)
    doc["tree"]["weights"] = {"missing": True}
    problem = parse_problem(doc)

    def report(threads):
        res = run_smaa(problem, iterations=1000, seed=17, threads=threads)
        return (write_report(res, problem, level="all-nodes", fmt="csv").encode(),
                write_report(res, problem, level="all-nodes", fmt="text").encode())

    first, second, threaded = report(1), report(1), report(4)
    assert first == second == threaded
    _ok(8, "reports byte-identical across reruns and 1 vs 4 threads")


def test_criterion_09_case_study_end_to_end(case_study, case_study_runs):
    # static validation already happened in load_problem; spot-check shape
    assert case_study.tree.n_elementary == 54
    assert case_study.n_categories == 4

    res = case_study_runs["first"]
    elapsed = case_study_runs["elapsed"]
    assert elapsed < 10.0
    assert res.iterations == 10_000

    # criterion 4 on these outputs: every draw bracketed, ordering held
    assert res.boundary_violations == 0

    # criterion 7 on these outputs: rows are exact distributions
    assert np.allclose(res.category_index.sum(axis=-1), 1.0, atol=1e-9)
    assert np.allclose(res.node_index.sum(axis=-1), 1.0, atol=1e-9)

    # criterion 8 on these outputs: reruns and threading change nothing
    assert res.category_index.tobytes() == case_study_runs["second"].category_index.tobytes()
    assert res.category_index.tobytes() == case_study_runs["threaded"].category_index.tobytes()
    assert res.node_index.tobytes() == case_study_runs["threaded"].node_index.tobytes()
    a = write_report(res, case_study, level="all-nodes", fmt="csv")
    b = write_report(case_study_runs["threaded"], case_study, level="all-nodes", fmt="csv")
    assert a == b

    # criterion 5 on these outputs: decomposition under one sampled weight
    # vector, checked with the single-evaluation wrappers
    tree = case_study.tree
    rng = iteration_rng(99, 0)
    weights = {}
    for group in tree.sibling_groups():
        vals = sample_group_weights(group.spec, len(group.members), rng)
        weights.update(zip(group.members, vals))
    prefs = case_study.resolved_preferences()
    profiles = case_study.resolved_profile_set()
    gap = 0.0
    for name in ("Inst. 1", "Inst. 4"):
        x = case_study.evaluation_tfns(name)
        overall = flow_bundle(tree, weights, prefs, profiles, x).alternative.net
        parts = sum(
            weights[node.path]
            * single_criterion_flows(tree, weights, prefs, profiles, x, node.path).net
            for node in tree.first_level
        )
        gap = max(gap, abs(overall - parts))
    assert gap < 1e-9

    # the synthetic cohort uses all four categories and is not degenerate
    argmax = res.category_index.argmax(axis=1)
    assert set(argmax) == {0, 1, 2, 3}
    split = ((res.category_index > 0.05) & (res.category_index < 0.95)).any()
    assert split
    _ok(9, f"case study: 10k iterations in {elapsed:.2f} s, 0 violations, "
           f"decomposition gap {gap:.1e}, reports reproducible")


def test_criterion_10_crisp_limit_of_the_fuzzy_layer(case_study):
    with open(fixture_path("case-study")) as fh:
        doc = json.load(fh)

    # variant A: the linguistic scale keeps its terms, spreads forced to 0
    flat_scale = copy.deepcopy(doc)
    terms = flat_scale["scales"]["maturity"]["terms"]
    lookup = {}
    for entry in terms:
        entry[1] = [entry[1][0], 0, 0]
        lookup[entry[0]] = entry[1][0]

    # variant B: every linguistic value replaced by its numeric mode
    numeric = copy.deepcopy(doc)

    def crispify(value):
        return lookup.get(value, value) if isinstance(value, str) else value

    for evals in numeric["alternatives"].values():
        for key in evals:
            evals[key] = crispify(evals[key])
    numeric["profiles"]["default"] = [
        crispify(v) for v in numeric["profiles"]["default"]]

    res_a = run_smaa(parse_problem(flat_scale), iterations=1500, seed=3, threads=1)
    res_b = run_smaa(parse_problem(numeric), iterations=1500, seed=3, threads=1)
    assert res_a.category_index.tobytes() == res_b.category_index.tobytes()
    assert res_a.node_index.tobytes() == res_b.node_index.tobytes()
    assert np.array_equal(res_a.category_index.argmax(axis=1),
                          res_b.category_index.argmax(axis=1))
    _ok(10, "zero-spread linguistic pipeline equals the crisp pipeline "
            "draw for draw")
