"""Shared fixtures and the bridge from oracle instances to library objects."""

from __future__ import annotations

import numpy as np
import pytest

from smaaflow import TFN, PreferenceSpec, ProfileSet, build_tree
from smaaflow.flows import _block_pair_sums
from smaaflow.model_io import fixture_path, load_problem
from smaaflow.preference import PreferenceArrays

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
    """The engine's leaf tables of one data draw, or of draws along a
    leading axis, as ``engine.pref_components`` lays them out, from one pass
    of its kernel and without its profile-order check: ``prefs`` are
    :class:`PreferenceSpec` entries for one draw, or arrays with (n_el,
    draws) ``q`` and ``p``."""
    one = evals.ndim == 3
    if one:
        prefs = PreferenceArrays.of(prefs)
        prefs = prefs._replace(q=prefs.q[:, None], p=prefs.p[:, None])
        evals, profiles = evals[None], profiles[None]
    leaves = np.arange(evals.shape[-2])
    tables = engine._chunk_tables(prefs, evals, profiles, defuzz,
                                  _block_pair_sums(prefs, profiles, defuzz, leaves),
                                  slice(None), leaves).transpose(2, 0, 1)
    return tables[0] if one else tables
