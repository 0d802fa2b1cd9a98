"""Hierarchical aggregation versus an independent flat implementation.

The oracle in ``oracles.py`` knows nothing about trees: it works on
elementary criteria whose weights are path products.  Aggregating
preferences level by level must give the same flows because the
weighted sums commute.
"""

import random

import pytest

from smaaflow import flow_bundle, outranking_degree, subtree_preference

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
