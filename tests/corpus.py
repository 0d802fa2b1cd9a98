"""Randomized-corpus checks shared by the unit and acceptance suites.

Each helper takes an instance from :func:`oracles.random_instance` and
returns the largest absolute deviation it observed, raising on any
structural disagreement (assignments, validity, ordering).
"""

from __future__ import annotations

import numpy as np

from smaaflow import assignments, flow_bundle, single_criterion_flows
from smaaflow.flows import BatchEngine, tfn_matrix

import oracles
from conftest import library_objects


def triangle_gap(inst, defuzz="centroid"):
    """Max |oracle - library| over flows of the engine, run once per
    alternative through ``flow_bundle`` and once for all of them as a
    batch, plus assignment agreement.  The oracle works on the flattened
    tree; the engine sums per-leaf flows up the hierarchy."""
    tree, weights, prefs, profiles, evals = library_objects(inst)
    gap = 0.0

    prof_arr = np.array([tfn_matrix(r) for r in profiles.levels])
    eval_arr = np.array([tfn_matrix(r) for r in evals])
    engine = BatchEngine(tree, len(evals), len(profiles.levels))
    comp = engine.pref_components(prefs, eval_arr, prof_arr, defuzz)
    w_row = np.array([[weights[n.path] for n in tree.nodes]])
    bf = engine.flows(comp, w_row)
    engine.check_ordering(comp)
    cats, valid = engine.assign_overall(bf, "net")
    assert valid.all(), "batch engine rejected a dominance-respecting instance"

    for i, (row_lib, row_orc) in enumerate(zip(evals, inst["evals"])):
        alt, prof = oracles.oracle_flows(inst["flat"], inst["profiles"], row_orc, defuzz)
        bundle = flow_bundle(tree, weights, prefs, profiles, row_lib, defuzz)
        gap = max(
            gap,
            abs(bundle.alternative.plus - alt[0]),
            abs(bundle.alternative.minus - alt[1]),
            abs(bundle.alternative.net - alt[2]),
            abs(float(bf.root["positive"].alt[0, i]) - alt[0]),
            abs(float(bf.root["negative"].alt[0, i]) - alt[1]),
        )
        for h, (t_lib, t_orc) in enumerate(zip(bundle.profiles, prof)):
            gap = max(
                gap,
                abs(t_lib.plus - t_orc[0]),
                abs(t_lib.minus - t_orc[1]),
                abs(t_lib.net - t_orc[2]),
                abs(float(bf.root["positive"].prof[0, i, h]) - t_orc[0]),
                abs(float(bf.root["negative"].prof[0, i, h]) - t_orc[1]),
            )
        got = assignments(bundle)
        want = oracles.oracle_assignments(inst["flat"], inst["profiles"], row_orc, defuzz)
        assert (got.by_positive, got.by_negative, got.by_net) == want
        assert cats[0, i] == want[2]
    return gap


def ordering_margins(inst):
    """Profile-flow monotonicity via the batch engine; returns the smallest
    strict decrease over adjacent profile pairs (positive when ordered)."""
    tree, weights, prefs, profiles, evals = library_objects(inst)
    engine = BatchEngine(tree, len(evals), len(profiles.levels))
    comp = engine.pref_components(
        prefs,
        np.array([tfn_matrix(r) for r in evals]),
        np.array([tfn_matrix(r) for r in profiles.levels]),
        "centroid",
    )
    w_row = np.array([[weights[n.path] for n in tree.nodes]])
    bf = engine.flows(comp, w_row)
    engine.check_ordering(comp)

    margin = min(
        float(-np.diff(bf.root["net"].prof, axis=-1).max()),
        float(-np.diff(bf.root["positive"].prof, axis=-1).max()),
        float(np.diff(bf.root["negative"].prof, axis=-1).min()),
    )
    for rule in ("positive", "negative", "net"):
        _, valid = engine.assign_overall(bf, rule)
        assert valid.all(), f"{rule} rule left an alternative unbracketed"
    return margin


def decomposition_gap(inst):
    """|overall net flow - weighted first-level single-criterion flows|."""
    tree, weights, prefs, profiles, evals = library_objects(inst)
    gap = 0.0
    for x in evals:
        overall = flow_bundle(tree, weights, prefs, profiles, x).alternative.net
        parts = sum(
            weights[node.path]
            * single_criterion_flows(tree, weights, prefs, profiles, x, node.path).net
            for node in tree.first_level
        )
        gap = max(gap, abs(overall - parts))
    return gap
