"""The per-layer trace in ``perfbench/spans.py`` wraps package attributes by
name; an engine change that renames one would break ``--trace 1`` runs."""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
from smaaflow import smaa  # noqa: E402
from smaaflow.flows import BatchEngine, tfn_matrix  # noqa: E402
from smaaflow.model_io import fixture_path, parse_problem  # noqa: E402


def test_every_trace_target_resolves():
    for module, cls, attr, layer in spans.TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), f"{module} {cls} {attr} ({layer})"


def test_aggregate_counter_reads_the_engine(walkthrough, tmp_path):
    tree = walkthrough.tree
    engine = BatchEngine(tree, 2, 3)
    assert isinstance(engine.n_pairs, int) and engine.n_pairs > 0
    comp = engine.pref_components(
        walkthrough.resolved_preferences(),
        np.array([tfn_matrix(walkthrough.evaluation_tfns(x)) for x in ("x1", "x2")]),
        np.array([tfn_matrix(r) for r in walkthrough.resolved_profile_set().levels]),
        "centroid",
    )
    w = np.ones((4, len(tree.nodes)))
    recorder = spans.Recorder(tmp_path)
    recorder._on_flows_aggregate((engine, comp, w), {}, engine.node_values(comp, w))
    assert recorder.counts["flows.aggregate.bytes_computed"] > 0


@pytest.mark.parametrize("rule", ["net", "positive"])
def test_traced_run_counts_the_engine_layers(rule, tmp_path, monkeypatch):
    # every target wrapped as a traced run wraps it, but undone after the
    # test; a stochastic walkthrough draws components per block, so the
    # hooks see the call shapes a run makes
    recorder = spans.Recorder(tmp_path)
    for module, cls, attr, layer in spans.TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        monkeypatch.setattr(owner, attr, recorder._wrap(layer, getattr(owner, attr)))
    doc = json.loads(fixture_path("walkthrough").read_text(encoding="utf-8"))
    doc["alternatives"]["x1"]["G1/g11"] = [7, 9]
    smaa.run_smaa(parse_problem(doc), iterations=300, rule=rule, threads=1)
    metrics = spans.summarize(recorder.state(), [])
    for name in ("flows.components.calls", "flows.aggregate.calls",
                 "flows.aggregate.bytes_computed"):
        assert metrics[name] > 0, name
    # one flows call per block, each folding its tables through node_values
    calls = {layer: recorder.layers[layer][0] for layer in ("flows.flows", "flows.aggregate")}
    assert calls["flows.flows"] == calls["flows.aggregate"] > 0, calls
