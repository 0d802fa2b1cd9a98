"""Hierarchical aggregation versus an independent flat implementation.

The oracle in ``oracles.py`` knows nothing about trees: it works on
elementary criteria whose weights are path products.  Aggregating
preferences level by level must give the same flows because the
weighted sums commute.
"""

import random

import numpy as np
import pytest

from smaaflow import build_tree, flow_bundle, outranking_degree, subtree_preference
from smaaflow.flows import BatchEngine, tfn_matrix
from smaaflow.smaa import iteration_rng, sample_group_weights

import corpus
import oracles
from conftest import library_objects


@pytest.mark.parametrize("seed", range(12))
def test_crisp_instances_match(seed):
    rng = random.Random(1000 + seed)
    for _ in range(3):
        inst = oracles.random_instance(rng, fuzzy=False)
        assert corpus.triangle_gap(inst) < 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_fuzzy_instances_match(seed):
    rng = random.Random(2000 + seed)
    for _ in range(3):
        inst = oracles.random_instance(rng, fuzzy=True)
        assert corpus.triangle_gap(inst) < 1e-12


def test_wider_shape_palette():
    rng = random.Random(3000)
    shapes = ("usual", "u-shape", "v-shape", "level", "linear", "gaussian")
    for _ in range(10):
        inst = oracles.random_instance(rng, fuzzy=True, shapes=shapes)
        assert corpus.triangle_gap(inst) < 1e-12


SHAPES = ("usual", "u-shape", "v-shape", "level", "linear", "gaussian")


@pytest.mark.parametrize("seed", range(4))
def test_pairwise_degrees_match_the_flat_sums(seed):
    # outranking_degree against the flat weighted sum of the whole tree, and
    # subtree_preference at every node against the flat sum over that
    # node's leaves with weight chains cut below it (oracles.subtree_flows)
    rng = random.Random(7000 + seed)
    for _ in range(3):
        inst = oracles.random_instance(rng, fuzzy=rng.random() < 0.7, shapes=SHAPES)
        tree, weights, prefs, profiles, evals = library_objects(inst)
        flat = inst["flat"]
        rows = list(zip(evals, inst["evals"])) + list(zip(profiles.levels, inst["profiles"]))
        pairs = [(x, r) for x in rows[:len(evals)] for r in rows[len(evals):]]
        pairs += [(r, x) for x, r in pairs]
        for (a_lib, a_orc), (b_lib, b_orc) in pairs:
            for method in ("centroid", "spread-sum"):
                got = outranking_degree(tree, weights, prefs, a_lib, b_lib, method)
                assert got == pytest.approx(
                    oracles.pi_value(flat, a_orc, b_orc, method), abs=1e-12)
        for node in tree.nodes:
            cut = len(node.path)
            leaves = [i for i, p in enumerate(tree.elementary_paths) if p[:cut] == node.path]
            for (a_lib, a_orc), (b_lib, b_orc) in pairs[::7]:
                want = (0.0, 0.0, 0.0)
                for i in leaves:
                    chain, model = flat[i]
                    want = oracles.tfn_add(want, oracles.tfn_scale(
                        oracles.effective_weight(chain[cut:]),
                        oracles.pref_fuzzy(model, a_orc[i], b_orc[i])))
                got = subtree_preference(tree, node.path, weights, prefs, a_lib, b_lib)
                assert (got.m, got.alpha, got.beta) == pytest.approx(want, abs=1e-12)


def test_spread_sum_defuzzification_agrees_too():
    rng = random.Random(4000)
    for _ in range(6):
        inst = oracles.random_instance(rng, fuzzy=True)
        tree, weights, prefs, profiles, evals = library_objects(inst)
        for row_lib, row_orc in zip(evals, inst["evals"]):
            alt, _ = oracles.oracle_flows(
                inst["flat"], inst["profiles"], row_orc, "spread-sum")
            bundle = flow_bundle(
                tree, weights, prefs, profiles, row_lib, "spread-sum")
            assert bundle.alternative.net == pytest.approx(alt[2], abs=1e-12)


def test_decomposition_identity_randomized():
    rng = random.Random(5000)
    for _ in range(20):
        inst = oracles.random_instance(rng, fuzzy=rng.random() < 0.5)
        assert corpus.decomposition_gap(inst) < 1e-9


def test_profile_flow_monotonicity_randomized():
    rng = random.Random(6000)
    for _ in range(50):
        inst = oracles.random_instance(rng, fuzzy=rng.random() < 0.5,
                                       max_depth=rng.randint(2, 3))
        assert corpus.ordering_margins(inst) > 0


def sampled_tree(rng):
    """An oracle instance and its tree with the first-level group and the
    last inner group in depth-first order sampled (``missing``), so the
    engine has fixed inner nodes, varying nodes and a varying whole tree."""
    while True:
        inst = oracles.random_instance(rng, fuzzy=True, max_depth=3)
        children = oracles.library_tree_spec(inst["children"])
        inner, todo = [], list(children)
        while todo:
            node = todo.pop(0)
            if "children" in node:
                inner.append(node)
                todo[:0] = node["children"]
        inner[-1]["weights"] = {"missing": True}
        tree = build_tree(children, {"missing": True})
        engine = BatchEngine(tree, len(inst["evals"]), len(inst["profiles"]))
        if engine.fixed_inner and engine.varying and not engine.root_fixed:
            return inst, tree, engine


@pytest.mark.parametrize("seed", range(3))
def test_whole_tree_flows_match_under_sampled_weights(seed):
    # every rule's whole-tree table, built from the leaf tables that rule
    # reads (all three with no rule), static and per draw, against the flat
    # oracle with each weight row's path-product chains
    inst, tree, engine = sampled_tree(random.Random(8000 + seed))
    _, _, prefs, profiles, evals = library_objects(inst)
    np_rng = iteration_rng(seed, 0)
    w = np.empty((8, len(tree.nodes)))
    for group in tree.sibling_groups():
        idx = [tree.node_index[p] for p in group.members]
        w[:, idx] = sample_group_weights(group.spec, len(idx), np_rng, size=len(w))
    data = (np.array([tfn_matrix(r) for r in evals]),
            np.array([tfn_matrix(r) for r in profiles.levels]))
    models = [model for _, model in inst["flat"]]
    want = []
    for row in w:
        flat = [(tuple(row[tree.node_index[p[:d]]] for d in range(1, len(p) + 1)), model)
                for p, model in zip(tree.elementary_paths, models)]
        want.append([oracles.oracle_flows(flat, inst["profiles"], x) for x in inst["evals"]])
    for rule, tables in ((None, (0, 1)), ("positive", (0,)), ("negative", (1,))):
        ruled = BatchEngine(tree, engine.m, engine.c, rule)
        comp = ruled.pref_components(prefs, *data, "centroid")
        for leaves in (comp, np.broadcast_to(comp, (len(w),) + comp.shape)):
            bf = ruled.flows(leaves, w)
            for t in tables:
                alt, prof = bf.root[("positive", "negative")[t]]
                for r, rows in enumerate(want):
                    for i, (alt_want, prof_want) in enumerate(rows):
                        assert alt[r, i] == pytest.approx(alt_want[t], abs=1e-12)
                        assert prof[r, i] == pytest.approx([p[t] for p in prof_want],
                                                           abs=1e-12)
