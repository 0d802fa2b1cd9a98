"""Problem documents for the benchmark workloads.

Every workload is a function of the workload seed that returns a problem
document (a plain dict, written to disk as JSON for the program to read).
Generated problems keep their size and shape fixed and let the seed choose
only values, so every seed asks the program for the same amount of work.
The seed picks one of ``VARIANTS`` problems; ``reference.json`` holds the
reference acceptability indices of each of them.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "src" / "smaaflow" / "fixtures" / "case_study_synthetic.json"

#: Distinct generated problems per workload; the seed picks one.
VARIANTS = 8

SHAPES = ("usual", "u-shape", "v-shape", "level", "linear", "gaussian")

#: Largest fuzzy spread of a generated profile or evaluation.
SPREAD_CAP = 0.3


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def case_study(seed: int) -> dict:
    """The bundled case study as shipped, with its own ``smaa`` settings."""
    return _fixture()


def case_study_interval(seed: int) -> dict:
    """The case study with every evaluation an interval around its term.

    Intervals stay strictly inside the profile envelope [0, 8] so that no
    draw ties the best or worst profile.  The ``existence`` leaves use a
    linear shape whose ``q`` interval lies wholly below its ``p`` interval,
    so threshold pairs are never redrawn, and their evaluations keep more
    than the largest ``q`` away from the crisp end profiles, since a draw
    within ``q`` of one would tie it.
    """
    rng = random.Random(f"case-study-interval/{seed % VARIANTS}")
    doc = copy.deepcopy(_fixture())
    modes = {term: tfn[0] for term, tfn in doc["scales"]["maturity"]["terms"]}
    for values in doc["alternatives"].values():
        for path, term in values.items():
            lo_end, hi_end = (1.0, 7.0) if path.endswith("/existence") else (0.25, 7.75)
            m = min(max(modes[term], lo_end + 0.1), hi_end - 0.1)
            lo = max(lo_end, m - rng.uniform(0.3, 1.0))
            hi = min(hi_end, m + rng.uniform(0.3, 1.0))
            values[path] = [round(lo, 6), round(hi, 6)]
    per = {}
    for process in doc["tree"]["children"]:
        q_lo = rng.uniform(0.1, 0.3)
        p_lo = rng.uniform(0.8, 1.2)
        per[f"{process['label']}/existence"] = {
            "shape": "linear",
            "direction": "maximize",
            "q": [round(q_lo, 6), round(q_lo + 0.3, 6)],
            "p": [round(p_lo, 6), round(p_lo + 0.6, 6)],
        }
    doc["preferences"]["per_criterion"] = per
    doc["name"] = "Case study with interval evaluations"
    doc["notes"] = f"perfbench case-study-interval, variant {seed % VARIANTS}"
    doc["smaa"] = {"iterations": 1000, "seed": 0, "rule": "net", "defuzz": "centroid"}
    return doc


def _model(rng: random.Random, shape: str) -> dict:
    model = {"shape": shape, "direction": rng.choice(["maximize", "minimize"])}
    if shape == "u-shape":
        model["q"] = round(rng.uniform(0.0, 0.4), 6)
    elif shape == "v-shape":
        model["p"] = round(rng.uniform(0.2, 1.2), 6)
    elif shape in ("level", "linear"):
        model["q"] = round(rng.uniform(0.0, 0.4), 6)
        model["p"] = round(model["q"] + rng.uniform(0.2, 1.2), 6)
    elif shape == "gaussian":
        model["s"] = round(rng.uniform(0.2, 1.0), 6)
    return model


def _tfn(rng: random.Random, m: float) -> dict:
    return {"tfn": [round(m, 6), round(rng.uniform(0.0, SPREAD_CAP), 6),
                    round(rng.uniform(0.0, SPREAD_CAP), 6)]}


def synthetic_wide(seed: int) -> dict:
    """A wide three-level tree with fuzzy deterministic data.

    A ``missing`` root group over 8 first-level criteria, each an ordinal
    group over 5 mid-level criteria (the last with one unranked member, so
    partial-rank rejection runs once per draw), each a deterministic group
    over 4 or 5 of the 192 leaves; 40 alternatives of graded quality and 5
    categories.  Few groups are sampled per draw, so the engine, not weight
    sampling, dominates.  Profiles and evaluations follow
    ``tests/oracles.random_instance``: profile modes step by more than
    ``p`` plus twice the largest spread, and evaluations keep clear of both
    envelope ends, so every draw is bracketed.
    """
    rng = random.Random(f"synthetic-wide/{seed % VARIANTS}")
    n_first, n_mid, n_alt, k = 8, 5, 40, 5
    children = []
    leaves = []  # (label path, model)
    for f in range(n_first):
        mids = []
        for g in range(n_mid):
            n_leaf = 4 if g == n_mid - 1 else 5
            raw = [rng.randint(1, 4) for _ in range(n_leaf)]
            weights = [round(r / sum(raw), 6) for r in raw[:-1]]
            weights.append(round(1.0 - sum(weights), 6))
            kids = []
            for j in range(n_leaf):
                label = f"c{f + 1}.{g + 1}.{j + 1}"
                kids.append({"label": label})
                shape = SHAPES[len(leaves) % len(SHAPES)]
                leaves.append((f"F{f + 1}/M{f + 1}.{g + 1}/{label}", _model(rng, shape)))
            mids.append({"label": f"M{f + 1}.{g + 1}",
                         "weights": {"deterministic": weights}, "children": kids})
        ranks = [rng.randint(1, 3) for _ in range(n_mid)]
        if f == n_first - 1:
            ranks[rng.randrange(n_mid)] = None
        children.append({"label": f"F{f + 1}", "weights": {"ordinal": ranks},
                         "children": mids})

    profiles = {}
    columns = []
    for path, model in leaves:
        base = rng.uniform(-5.0, 5.0)
        step = model.get("p", 0.0) + 2 * SPREAD_CAP + rng.uniform(0.3, 1.0)
        sign = 1.0 if model["direction"] == "maximize" else -1.0
        profiles[path] = [_tfn(rng, base + sign * (k - h) * step) for h in range(k + 1)]
        lo = model.get("q", 0.0) + 2 * SPREAD_CAP + 0.1
        hi = k * step - (2 * SPREAD_CAP + 0.05)
        columns.append((base, sign, lo, hi))

    # Alternatives spread from worst to best; each leaf scatters around the
    # alternative's quality, so some alternatives sit on category boundaries.
    alternatives = {}
    for i in range(n_alt):
        quality = (i + 0.5) / n_alt
        alternatives[f"A{i + 1:02d}"] = {
            path: _tfn(rng, base + sign * (lo + (hi - lo) * min(max(rng.gauss(quality, 0.25), 0.0), 1.0)))
            for (path, _), (base, sign, lo, hi) in zip(leaves, columns)
        }

    return {
        "schema": 1,
        "name": "Synthetic wide problem",
        "notes": f"perfbench synthetic-wide, variant {seed % VARIANTS}",
        "categories": [f"C{h + 1}" for h in range(k)],
        "tree": {"weights": {"missing": True}, "children": children},
        "preferences": {"per_criterion": {path: model for path, model in leaves}},
        "profiles": {"per_criterion": profiles},
        "alternatives": alternatives,
        "smaa": {"iterations": 1024, "seed": 0, "rule": "net", "defuzz": "centroid"},
    }


WORKLOADS = {
    "case-study": case_study,
    "case-study-interval": case_study_interval,
    "synthetic-wide": synthetic_wide,
}


def variant(name: str, seed: int) -> int:
    """Which of the workload's problems a seed selects."""
    return 0 if name == "case-study" else seed % VARIANTS


def node_labels(doc: dict) -> list[str]:
    """Label paths of every tree node in depth-first order, as reported."""
    out = []

    def walk(children, prefix):
        for child in children:
            path = f"{prefix}/{child['label']}" if prefix else child["label"]
            out.append(path)
            walk(child.get("children", []), path)

    walk(doc["tree"].get("children", []), "")
    return out


def digest(doc: dict) -> str:
    """Content digest of a problem document, independent of key order."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
