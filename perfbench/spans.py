"""Per-layer span recorder installed around smaaflow's public functions.

The recorder replaces module and class attributes of the imported package
with timing wrappers; nothing inside ``src/smaaflow`` changes.  Spans nest
on a per-process stack, and each closed span adds its duration to its
layer and to its parent's child time, so a layer's self time is its spans'
duration minus the part covered by child spans.  Only per-layer sums are
kept, never individual spans.

The wrappers are installed before ``run_smaa`` forks its pool, so workers
inherit them.  After fork a worker starts from empty sums, and it writes
them to ``<trace_dir>/worker-<pid>.json`` whenever one of its top-level
spans (runtime set-up or ``simulate``) closes; the parent merges the files
once ``run_smaa`` returns.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from pathlib import Path

#: (module, class or None, attribute, layer) for every wrapped entry
#: point.  A function imported by name into another module is patched
#: there too, so every call site goes through exactly one wrapper.
TARGETS = (
    ("smaaflow.model_io", None, "load_problem", "model_io.load"),
    ("smaaflow.cli", None, "load_problem", "model_io.load"),
    ("smaaflow.model_io", None, "write_report", "model_io.report"),
    ("smaaflow.cli", None, "write_report", "model_io.report"),
    ("smaaflow.smaa", None, "run_smaa", "smaa.run"),
    ("smaaflow.cli", None, "run_smaa", "smaa.run"),
    ("smaaflow.smaa", "ProblemRuntime", "__init__", "smaa.runtime_init"),
    ("smaaflow.smaa", "ProblemRuntime", "simulate", "smaa.tally"),
    ("smaaflow.smaa", None, "iteration_rng", "smaa.rng"),
    ("smaaflow.smaa", None, "sample_group_weights", "smaa.weights"),
    ("smaaflow.smaa", None, "sample_weights_missing", "smaa.simplex"),
    ("smaaflow.smaa", None, "sample_value", "smaa.values"),
    ("smaaflow.smaa", None, "sample_thresholds", "smaa.thresholds"),
    ("smaaflow.smaa", None, "sample_profiles", "smaa.profiles"),
    ("smaaflow.flows", "BatchEngine", "pref_components", "flows.components"),
    ("smaaflow.flows", "BatchEngine", "node_values", "flows.aggregate"),
    ("smaaflow.flows", "BatchEngine", "flows", "flows.flows"),
    ("smaaflow.flows", "BatchEngine", "check_ordering", "flows.bracket"),
    ("smaaflow.flows", "BatchEngine", "assign_overall", "flows.bracket"),
    ("smaaflow.flows", "BatchEngine", "assign_nodes", "flows.bracket"),
)

#: Layers whose spans cover the work of one process inside ``run_smaa``.
WORKER_ROOTS = ("smaa.runtime_init", "smaa.tally")


class Recorder:
    """Per-layer call counts, span time and self time for one process."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.parent_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.layers: dict[str, list] = {}  # layer -> [calls, span_s, self_s]
        self.counts: dict[str, float] = {}
        self.first: dict[str, float] = {}  # layer -> first span start
        self.stack: list[list] = []  # open spans: [layer, child_s]

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        recorder = self
        hook = getattr(self, "_on_" + layer.replace(".", "_"), None)

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack = recorder.stack
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += span
                entry = recorder.layers.setdefault(layer, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += span
                entry[2] += span - frame[1]
                recorder.first.setdefault(layer, start)
            if hook is not None:
                hook(args, kwargs, out)
            if not stack and layer in WORKER_ROOTS and os.getpid() != recorder.parent_pid:
                recorder.flush()
            return out

        traced.__wrapped__ = fn
        return traced

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- counters at the same boundaries ----------------------------------

    def _on_smaa_weights(self, args, kwargs, out):
        spec = args[0]
        if spec.kind != "deterministic":
            self.add("smaa.weights.vectors", 1)

    def _on_smaa_simplex(self, args, kwargs, out):
        self.add("smaa.simplex.rows", out.shape[0] if out.ndim == 2 else 1)

    def _on_smaa_values(self, args, kwargs, out):
        if self.stack and self.stack[-1][0] == "smaa.thresholds":
            self.add("smaa.thresholds.value_draws", 1)

    def _on_flows_aggregate(self, args, kwargs, out):
        engine, components, w = args[0], args[1], args[2]
        block = w.shape[0] * engine.n_pairs * 8
        n_el = components.shape[-1]
        comp_rows = w.shape[0] if components.ndim == 3 else 1
        # computed from array shapes: every node value written once, every
        # child value read once, leaf components read once
        self.add("flows.aggregate.bytes_computed",
                 block * (2 * engine.n_nodes + 1) + comp_rows * engine.n_pairs * n_el * 8)

    def _on_smaa_run(self, args, kwargs, out):
        self.add("smaa.violations", out.boundary_violations)

    # -- install, flush, merge ---------------------------------------------

    def install(self) -> None:
        for module, cls, attr, layer in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            setattr(owner, attr, self._wrap(layer, getattr(owner, attr)))
        # a forked worker starts from empty sums and an empty span stack
        os.register_at_fork(after_in_child=self.reset)

    def state(self) -> dict:
        return {"pid": os.getpid(), "layers": self.layers,
                "counts": self.counts, "first": self.first}

    def flush(self) -> None:
        path = self.trace_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.state()), encoding="utf-8")
        os.replace(tmp, path)

    def worker_states(self) -> list[dict]:
        return [json.loads(p.read_text(encoding="utf-8"))
                for p in sorted(self.trace_dir.glob("worker-*.json"))]


def summarize(parent: dict, workers: list[dict]) -> dict:
    """Per-layer metrics of one traced run from the parent and worker sums."""
    states = [parent] + workers
    layers: dict[str, list] = {}
    counts: dict[str, float] = {}
    for st in states:
        for name, (calls, span, self_s) in st["layers"].items():
            entry = layers.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += span
            entry[2] += self_s
        for name, value in st["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def calls(name):
        return layers.get(name, [0, 0.0, 0.0])[0]

    def span(name):
        return layers.get(name, [0, 0.0, 0.0])[1]

    def self_s(*names):
        return sum(layers.get(n, [0, 0.0, 0.0])[2] for n in names)

    run_s = parent["layers"]["smaa.run"][1]
    run_start = parent["first"]["smaa.run"]
    # processes that ran simulate: forked workers, or the parent itself
    sim = [st for st in states if "smaa.tally" in st["layers"]]
    busy = sum(st["layers"]["smaa.tally"][1] for st in sim)
    startup = min(st["first"]["smaa.tally"] for st in sim) - run_start
    # all traced work under run_smaa, in every process: the parent's set-up
    # plus each worker's set-up and simulate spans
    inside = sum(st["layers"].get(r, [0, 0.0, 0.0])[1] for st in states for r in WORKER_ROOTS)
    vectors = counts.get("smaa.weights.vectors", 0)
    rows = counts.get("smaa.simplex.rows", 0)
    pair_draws = counts.get("smaa.thresholds.value_draws", 0) / 2

    return {
        "model_io.load_s": span("model_io.load"),
        "model_io.report.calls": calls("model_io.report"),
        "model_io.report_s": span("model_io.report"),
        "smaa.run_s": run_s,
        "smaa.busy_s": inside,
        "smaa.runtime_init_s": self_s("smaa.runtime_init"),
        "smaa.rng.calls": calls("smaa.rng"),
        "smaa.rng.self_s": self_s("smaa.rng"),
        "smaa.weights.calls": calls("smaa.weights"),
        "smaa.weights.self_s": self_s("smaa.weights", "smaa.simplex"),
        "smaa.simplex.rows": rows,
        "smaa.weights.accept_ratio": vectors / rows if rows else 1.0,
        "smaa.values.calls": calls("smaa.values"),
        "smaa.values.self_s": self_s("smaa.values"),
        "smaa.thresholds.calls": calls("smaa.thresholds"),
        "smaa.thresholds.self_s": self_s("smaa.thresholds"),
        "smaa.thresholds.accept_ratio": (
            calls("smaa.thresholds") / pair_draws if pair_draws else 1.0),
        "smaa.profiles.calls": calls("smaa.profiles"),
        "smaa.profiles.self_s": self_s("smaa.profiles"),
        "flows.components.calls": calls("flows.components"),
        "flows.components.self_s": self_s("flows.components"),
        "flows.aggregate.calls": calls("flows.aggregate"),
        "flows.aggregate.self_s": self_s("flows.aggregate"),
        "flows.aggregate.bytes_computed": counts.get("flows.aggregate.bytes_computed", 0),
        "flows.flows.self_s": self_s("flows.flows"),
        "flows.bracket.self_s": self_s("flows.bracket"),
        "smaa.tally.self_s": self_s("smaa.tally"),
        "smaa.violations": counts.get("smaa.violations", 0),
        "smaa.pool.workers": len(sim),
        "smaa.pool.startup_s": startup,
        "smaa.pool.efficiency": busy / (len(sim) * run_s),
    }


#: Layers whose self times partition ``smaa.busy_s``.
BUSY_PARTS = (
    "smaa.runtime_init_s", "smaa.rng.self_s", "smaa.weights.self_s",
    "smaa.values.self_s", "smaa.thresholds.self_s", "smaa.profiles.self_s",
    "flows.components.self_s", "flows.aggregate.self_s", "flows.flows.self_s",
    "flows.bracket.self_s", "smaa.tally.self_s",
)
