"""Shared fixtures and the bridge from oracle instances to library objects."""

from __future__ import annotations

import pytest

from smaaflow import TFN, PreferenceSpec, ProfileSet, build_tree
from smaaflow.model_io import fixture_path, load_problem

import oracles


@pytest.fixture(scope="session")
def walkthrough():
    return load_problem(fixture_path("walkthrough"))


@pytest.fixture(scope="session")
def case_study():
    return load_problem(fixture_path("case-study"))


def library_objects(inst):
    """Build tree, weights, preferences, profiles and evaluations for the
    package from a generated oracle instance."""
    children = oracles.library_tree_spec(inst["children"])
    tree = build_tree(children, oracles.library_root_weights(inst["children"]))
    weights = tree.deterministic_weights()
    prefs = [
        PreferenceSpec(shape=m["shape"], q=m["q"], p=m["p"], s=m["s"],
                       direction=m["direction"])
        for _, m in inst["flat"]
    ]
    profiles = ProfileSet([[TFN(*t) for t in row] for row in inst["profiles"]])
    evals = [[TFN(*t) for t in row] for row in inst["evals"]]
    return tree, weights, prefs, profiles, evals


def unchecked_tables(engine, prefs, evals, profiles, defuzz="centroid"):
    """``engine.pref_components`` of the same inputs, without its
    profile-order check."""
    return engine._build_tables(prefs, evals, profiles, defuzz)[0]


def block_data(state, rng, draws):
    """``state``'s data draw of a block of ``draws`` draws from ``rng``, as
    the inputs of one ``pref_components`` call over the whole block."""
    return state._window_data(state._sample_data(rng, draws), slice(None))
