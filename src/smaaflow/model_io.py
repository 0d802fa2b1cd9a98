"""Problem files, validation and report writing.

A sorting problem travels as a single JSON document::

    {
      "schema": 1,
      "categories": ["C1", "C2"],                    # best first
      "scales": {"maturity": {"terms": [["EI", [0, 0, 0.75]], ...]}},
      "default_scale": "maturity",
      "tree": {"weights": {...}, "children": [{"label": ..., ...}]},
      "profiles": {"default": [...], "per_criterion": {"G1/g11": [...]}},
      "preferences": {"default": {...}, "per_criterion": {...}},
      "alternatives": {"x1": {"G1/g11": 8, ...}},
      "smaa": {"iterations": 10000, "seed": 0, "rule": "net"}
    }

Evaluations, profile levels and preference thresholds accept several value
forms: a number (crisp), a string (linguistic term, resolved through the
criterion's scale), ``[lo, hi]`` (uniform draw), ``{"tfn": [m, a, b]}``
(triangular fuzzy number) and ``{"normal": {"mean": ..., "sd": ...,
"min": ..., "max": ...}}`` (optionally truncated gaussian).  Thresholds
must stay scalar, so the string and tfn forms are rejected there.

Validation failures raise :class:`~smaaflow.errors.InputError` with a
stable code and the path of the offending field.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EVALUATION_BOUNDS,
    IO,
    MISSING_EVALUATION,
    SCHEMA,
    THRESHOLD,
    UNKNOWN_TERM,
    InputError,
)
from .flows import ProfileSet, RULES
from .fuzzy import DEFUZZ_METHODS, TFN
from .hierarchy import CriteriaTree, WeightSpec, build_tree
from .preference import DIRECTIONS, SHAPES, THRESHOLDS, PreferenceSpec
from .smaa import PreferenceModel, StochasticValue

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema", "name", "notes", "categories", "scales", "default_scale",
    "tree", "profiles", "preferences", "alternatives", "smaa",
}

#: Example problems shipped with the package.
FIXTURES = {
    "walkthrough": "walkthrough.json",
    "case-study": "case_study_synthetic.json",
}


@dataclass(frozen=True)
class LinguisticScale:
    """An ordered vocabulary of terms, each mapped to a fuzzy number."""

    name: str
    terms: tuple[tuple[str, TFN], ...]

    def __post_init__(self):
        labels = [t for t, _ in self.terms]
        if len(set(labels)) != len(labels):
            raise InputError(SCHEMA, f"scale {self.name!r} repeats a term", f"scales/{self.name}")
        modes = [v.m for _, v in self.terms]
        ascending = all(a < b for a, b in zip(modes, modes[1:]))
        descending = all(a > b for a, b in zip(modes, modes[1:]))
        if len(modes) > 1 and not (ascending or descending):
            raise InputError(
                SCHEMA,
                f"scale {self.name!r} term modes must be strictly monotone, got {modes}",
                f"scales/{self.name}",
            )

    def lookup(self, term: str) -> TFN:
        for label, value in self.terms:
            if label == term:
                return value
        raise InputError(
            UNKNOWN_TERM,
            f"term {term!r} not in scale {self.name!r} "
            f"(known: {[t for t, _ in self.terms]})",
        )


@dataclass(frozen=True)
class RunDefaults:
    """Per-problem defaults for the analysis, overridable from the CLI."""

    iterations: int = 10_000
    seed: int = 0
    rule: str = "net"
    defuzz: str = "centroid"


@dataclass
class Problem:
    """A fully validated sorting problem."""

    tree: CriteriaTree
    categories: tuple[str, ...]
    alternative_names: tuple[str, ...]
    evaluation_specs: tuple[tuple[StochasticValue, ...], ...]  # (m, n_el)
    profile_specs: tuple[tuple[StochasticValue, ...], ...]     # (k+1, n_el)
    preference_models: tuple[PreferenceModel, ...]             # n_el
    scales: dict[str, LinguisticScale] = field(default_factory=dict)
    scale_binding: tuple[str | None, ...] = ()
    default_scale: str | None = None
    defaults: RunDefaults = field(default_factory=RunDefaults)
    name: str | None = None
    notes: str | None = None

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    @property
    def is_deterministic_data(self) -> bool:
        """True when evaluations, profiles and thresholds carry no randomness."""
        return (
            all(v.is_deterministic for row in self.evaluation_specs for v in row)
            and all(v.is_deterministic for row in self.profile_specs for v in row)
            and all(m.is_deterministic for m in self.preference_models)
        )

    def resolved_preferences(self) -> list[PreferenceSpec]:
        return [m.resolve_deterministic() for m in self.preference_models]

    def resolved_profile_set(self) -> ProfileSet:
        return ProfileSet(
            [[v.resolved() for v in row] for row in self.profile_specs]
        )

    def evaluation_tfns(self, name: str) -> list[TFN]:
        row = self.evaluation_specs[self.alternative_names.index(name)]
        return [v.resolved() for v in row]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _require(cond: bool, message: str, at: str, code: str = SCHEMA) -> None:
    if not cond:
        raise InputError(code, message, at)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_tfn_triple(obj, at: str) -> TFN:
    _require(
        isinstance(obj, Sequence) and len(obj) == 3 and all(_is_number(v) for v in obj),
        "expected [mode, left spread, right spread]", at,
    )
    try:
        return TFN(float(obj[0]), float(obj[1]), float(obj[2]))
    except ValueError as exc:
        raise InputError(SCHEMA, str(exc), at) from exc


def _parse_value(obj, scale: LinguisticScale | None, at: str) -> StochasticValue:
    if _is_number(obj):
        return StochasticValue.crisp(obj)
    if isinstance(obj, str):
        if scale is None:
            raise InputError(
                UNKNOWN_TERM, f"term {obj!r} given but no scale is bound here", at
            )
        try:
            return StochasticValue.linguistic(obj, scale.lookup(obj))
        except InputError as exc:
            raise InputError(exc.code, str(exc), at) from exc
    if isinstance(obj, Sequence) and not isinstance(obj, (str, bytes)):
        _require(len(obj) == 2 and all(_is_number(v) for v in obj),
                 "interval must be [lo, hi]", at)
        _require(obj[0] <= obj[1], f"empty interval [{obj[0]}, {obj[1]}]", at)
        return StochasticValue.interval(obj[0], obj[1])
    if isinstance(obj, Mapping):
        if set(obj) == {"tfn"}:
            return StochasticValue.fuzzy(_parse_tfn_triple(obj["tfn"], f"{at}/tfn"))
        if set(obj) == {"normal"}:
            spec = obj["normal"]
            _require(isinstance(spec, Mapping), "normal spec must be a mapping", at)
            unknown = set(spec) - {"mean", "sd", "min", "max"}
            _require(not unknown, f"unknown normal keys {sorted(unknown)}", at)
            _require(_is_number(spec.get("mean")) and _is_number(spec.get("sd")),
                     "normal needs numeric mean and sd", at)
            _require(spec["sd"] > 0, "normal sd must be positive", at)
            lo = spec.get("min", -np.inf)
            hi = spec.get("max", np.inf)
            _require(lo <= hi, f"empty truncation [{lo}, {hi}]", at)
            return StochasticValue.normal(spec["mean"], spec["sd"], lo, hi)
    raise InputError(SCHEMA, f"unrecognized value form {obj!r}", at)


def _parse_threshold(obj, at: str) -> StochasticValue:
    value = _parse_value(obj, None, at)
    _require(value.kind in ("crisp", "interval", "normal"),
             "thresholds must be scalar: number, [lo, hi] or normal", at, THRESHOLD)
    # PreferenceSpec checks crisp values; a stochastic one may not draw below 0
    _require(value.lo >= 0, f"{value.kind} threshold can draw below 0 (lower end {value.lo})",
             at, THRESHOLD)
    return value


def _parse_scales(raw, at: str = "scales") -> dict[str, LinguisticScale]:
    if raw is None:
        return {}
    _require(isinstance(raw, Mapping), "scales must be a mapping", at)
    scales = {}
    for name, spec in raw.items():
        here = f"{at}/{name}"
        _require(isinstance(spec, Mapping) and set(spec) == {"terms"},
                 "scale needs exactly a 'terms' list", here)
        terms = spec["terms"]
        _require(isinstance(terms, Sequence) and terms, "terms must be a non-empty list", here)
        parsed = []
        for i, entry in enumerate(terms):
            _require(
                isinstance(entry, Sequence) and len(entry) == 2 and isinstance(entry[0], str),
                "each term is [label, [m, alpha, beta]]", f"{here}/terms/{i}",
            )
            parsed.append((entry[0], _parse_tfn_triple(entry[1], f"{here}/terms/{i}")))
        scales[name] = LinguisticScale(name, tuple(parsed))
    return scales


def _collect_scale_bindings(raw_children, tree: CriteriaTree, scales, default_scale):
    """Scale name per elementary slot, from leaf 'scale' keys or the default."""
    binding: list[str | None] = [None] * tree.n_elementary

    def walk(children, prefix, at):
        for i, obj in enumerate(children):
            path = prefix + (i + 1,)
            here = f"{at}/children/{i}"
            name = obj.get("scale")
            kids = obj.get("children", [])
            if name is not None:
                _require(isinstance(name, str), "scale must be a name", here)
                _require(not kids, "only elementary criteria bind a scale", here)
                _require(name in scales, f"unknown scale {name!r}", here)
            if kids:
                walk(kids, path, here)
            else:
                binding[tree.elementary_index[path]] = name or default_scale

    walk(raw_children, (), "tree")
    return tuple(binding)


def _elementary_slot(tree: CriteriaTree, label_path: str, at: str) -> int:
    try:
        path = tree.path_of_labels(label_path)
    except InputError as exc:
        raise InputError(SCHEMA, str(exc), at) from exc
    if path not in tree.elementary_index:
        raise InputError(SCHEMA, f"{label_path!r} is not an elementary criterion", at)
    return tree.elementary_index[path]


def _parse_preferences(raw, tree, at: str = "preferences") -> list[PreferenceModel]:
    defaults = {}
    per: dict[int, Mapping] = {}
    if raw is not None:
        _require(isinstance(raw, Mapping), "preferences must be a mapping", at)
        unknown = set(raw) - {"default", "per_criterion"}
        _require(not unknown, f"unknown preference keys {sorted(unknown)}", at)
        defaults = raw.get("default", {})
        _require(isinstance(defaults, Mapping), "default preference must be a mapping", f"{at}/default")
        for label_path, spec in (raw.get("per_criterion") or {}).items():
            here = f"{at}/per_criterion/{label_path}"
            slot = _elementary_slot(tree, label_path, here)
            _require(isinstance(spec, Mapping), "preference spec must be a mapping", here)
            per[slot] = spec

    def build(spec: Mapping, here: str) -> PreferenceModel:
        unknown = set(spec) - {"shape", "direction", "q", "p", "s"}
        _require(not unknown, f"unknown preference keys {sorted(unknown)}", here)
        shape = spec.get("shape", "usual")
        _require(shape in SHAPES, f"unknown shape {shape!r} (known: {SHAPES})", here)
        direction = spec.get("direction", "maximize")
        _require(direction in DIRECTIONS, f"unknown direction {direction!r}", here)
        q, p = (_parse_threshold(spec[name], f"{here}/{name}") if name in spec
                else StochasticValue.crisp(0.0) for name in ("q", "p"))
        s = spec.get("s", 0.0)
        _require(_is_number(s) and s >= 0, "s must be a non-negative number", here)
        for name, value in (("q", q), ("p", p), ("s", StochasticValue.crisp(s))):
            _require(name in THRESHOLDS[shape] or value == StochasticValue.crisp(0.0),
                     f"shape {shape!r} does not use threshold {name!r}", f"{here}/{name}",
                     THRESHOLD)
        model = PreferenceModel(shape=shape, direction=direction, q=q, p=p, s=float(s))
        if model.is_deterministic:  # PreferenceSpec checks the crisp thresholds
            try:
                model.resolve_deterministic()
            except ValueError as exc:
                raise InputError(THRESHOLD, str(exc), here) from exc
        return model

    models = []
    for slot, path in enumerate(tree.elementary_paths):
        label_path = tree.label_path(path)
        if slot in per:
            models.append(build(per[slot], f"{at}/per_criterion/{label_path}"))
        else:
            models.append(build(defaults, f"{at}/default"))
    return models


def _static_profile_checks(profile_specs, models, tree) -> None:
    """Dominance and overlap checks on fully deterministic profile columns."""
    c = len(profile_specs)
    for t in range(tree.n_elementary):
        column = [profile_specs[h][t] for h in range(c)]
        if not all(v.is_deterministic for v in column):
            continue
        tfns = [v.resolved() for v in column]
        mini = ProfileSet([[f] for f in tfns])
        mini.validate([PreferenceSpec(direction=models[t].direction)])  # only the direction counts


def _parse_profiles(raw, tree, models, scales, binding, k, at: str = "profiles"):
    _require(isinstance(raw, Mapping), "profiles must be a mapping", at)
    unknown = set(raw) - {"default", "per_criterion"}
    _require(not unknown, f"unknown profile keys {sorted(unknown)}", at)
    default = raw.get("default")
    per = raw.get("per_criterion") or {}
    _require(isinstance(per, Mapping), "per_criterion must be a mapping", f"{at}/per_criterion")

    columns: dict[int, list[StochasticValue]] = {}

    def parse_column(values, scale, here) -> list[StochasticValue]:
        _require(isinstance(values, Sequence) and not isinstance(values, (str, bytes)),
                 "profile column must be a list", here)
        _require(
            len(values) == k + 1,
            f"need {k + 1} profile levels for {k} categories, got {len(values)}", here,
        )
        return [_parse_value(v, scale, f"{here}/{h}") for h, v in enumerate(values)]

    for label_path, values in per.items():
        here = f"{at}/per_criterion/{label_path}"
        slot = _elementary_slot(tree, label_path, here)
        scale = scales.get(binding[slot]) if binding[slot] else None
        columns[slot] = parse_column(values, scale, here)

    for slot, path in enumerate(tree.elementary_paths):
        if slot in columns:
            continue
        _require(default is not None,
                 f"no profiles for {tree.label_path(path)!r} and no default", at)
        scale = scales.get(binding[slot]) if binding[slot] else None
        columns[slot] = parse_column(default, scale, f"{at}/default")

    levels = tuple(
        tuple(columns[slot][h] for slot in range(tree.n_elementary))
        for h in range(k + 1)
    )
    _static_profile_checks(levels, models, tree)
    return levels


def _profile_envelope(profile_specs, slot):
    """Support span of a deterministic profile column, or None."""
    column = [row[slot] for row in profile_specs]
    if not all(v.is_deterministic for v in column):
        return None
    lows = [v.resolved().support[0] for v in column]
    highs = [v.resolved().support[1] for v in column]
    return min(lows), max(highs)


def _check_evaluation_bounds(value: StochasticValue, envelope, at: str) -> None:
    """A deterministic support must lie inside the profile envelope, and a
    stochastic [lo, hi] must reach it."""
    if envelope is None:
        return
    lo, hi = envelope
    if value.is_deterministic:
        s_lo, s_hi = value.resolved().support
        if s_lo < lo or s_hi > hi:
            raise InputError(
                EVALUATION_BOUNDS,
                f"evaluation support [{s_lo}, {s_hi}] leaves the profile span [{lo}, {hi}]",
                at,
            )
    elif value.hi < lo or value.lo > hi:
        raise InputError(
            EVALUATION_BOUNDS,
            f"{value.kind} [{value.lo}, {value.hi}] cannot reach the profile span [{lo}, {hi}]",
            at,
        )


def _parse_alternatives(raw, tree, scales, binding, profile_specs, at: str = "alternatives"):
    _require(isinstance(raw, Mapping) and raw, "alternatives must be a non-empty mapping", at)
    envelopes = [_profile_envelope(profile_specs, t) for t in range(tree.n_elementary)]
    names = []
    rows = []
    for name, values in raw.items():
        here = f"{at}/{name}"
        _require(isinstance(name, str) and name, "alternative names must be non-empty strings", at)
        _require(isinstance(values, Mapping), "alternative must map criteria to values", here)
        row: list[StochasticValue | None] = [None] * tree.n_elementary
        for label_path, value in values.items():
            slot = _elementary_slot(tree, label_path, f"{here}/{label_path}")
            scale = scales.get(binding[slot]) if binding[slot] else None
            parsed = _parse_value(value, scale, f"{here}/{label_path}")
            _check_evaluation_bounds(parsed, envelopes[slot], f"{here}/{label_path}")
            row[slot] = parsed
        missing = [
            tree.label_path(tree.elementary_paths[t])
            for t, v in enumerate(row) if v is None
        ]
        if missing:
            raise InputError(
                MISSING_EVALUATION,
                f"alternative {name!r} lacks evaluations for {missing}",
                here,
            )
        names.append(name)
        rows.append(tuple(row))
    return tuple(names), tuple(rows)


def _parse_smaa(raw, at: str = "smaa") -> RunDefaults:
    if raw is None:
        return RunDefaults()
    _require(isinstance(raw, Mapping), "smaa must be a mapping", at)
    unknown = set(raw) - {"iterations", "seed", "rule", "defuzz"}
    _require(not unknown, f"unknown smaa keys {sorted(unknown)}", at)
    iterations = raw.get("iterations", 10_000)
    _require(isinstance(iterations, int) and not isinstance(iterations, bool)
             and iterations >= 1, "iterations must be a positive integer", f"{at}/iterations")
    seed = raw.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool), "seed must be an integer", f"{at}/seed")
    rule = raw.get("rule", "net")
    _require(rule in RULES, f"rule must be one of {RULES}", f"{at}/rule")
    defuzz = raw.get("defuzz", "centroid")
    _require(defuzz in DEFUZZ_METHODS, f"defuzz must be one of {DEFUZZ_METHODS}", f"{at}/defuzz")
    return RunDefaults(iterations=iterations, seed=seed, rule=rule, defuzz=defuzz)


def parse_problem(doc) -> Problem:
    """Validate a problem document and build the runnable form."""
    _require(isinstance(doc, Mapping), "problem must be a JSON object", "")
    _require(doc.get("schema") == SCHEMA_VERSION,
             f"schema must be {SCHEMA_VERSION}, got {doc.get('schema')!r}", "schema")
    unknown = sorted(set(doc) - _TOP_KEYS)
    _require(not unknown, f"unknown top-level keys {unknown}", "")
    for key in ("categories", "tree", "profiles", "alternatives"):
        _require(key in doc, f"missing required section {key!r}", key)

    categories = doc["categories"]
    _require(
        isinstance(categories, Sequence) and not isinstance(categories, (str, bytes))
        and categories and all(isinstance(c, str) and c for c in categories),
        "categories must be a non-empty list of names", "categories",
    )
    _require(len(set(categories)) == len(categories), "category names must be distinct", "categories")
    k = len(categories)

    scales = _parse_scales(doc.get("scales"))
    default_scale = doc.get("default_scale")
    if default_scale is not None:
        _require(isinstance(default_scale, str) and default_scale in scales,
                 f"unknown default scale {default_scale!r}", "default_scale")

    raw_tree = doc["tree"]
    _require(isinstance(raw_tree, Mapping), "tree must be a mapping", "tree")
    unknown = set(raw_tree) - {"weights", "children"}
    _require(not unknown, f"unknown tree keys {sorted(unknown)}", "tree")
    tree = build_tree(raw_tree.get("children", []), raw_tree.get("weights"))
    binding = _collect_scale_bindings(raw_tree.get("children", []), tree, scales, default_scale)

    models = _parse_preferences(doc.get("preferences"), tree)
    profile_specs = _parse_profiles(doc["profiles"], tree, models, scales, binding, k)
    names, rows = _parse_alternatives(doc["alternatives"], tree, scales, binding, profile_specs)
    defaults = _parse_smaa(doc.get("smaa"))

    name = doc.get("name")
    notes = doc.get("notes")
    for label, value in (("name", name), ("notes", notes)):
        _require(value is None or isinstance(value, str), f"{label} must be a string", label)

    return Problem(
        tree=tree,
        categories=tuple(categories),
        alternative_names=names,
        evaluation_specs=rows,
        profile_specs=profile_specs,
        preference_models=tuple(models),
        scales=scales,
        scale_binding=binding,
        default_scale=default_scale,
        defaults=defaults,
        name=name,
        notes=notes,
    )


def load_problem(path) -> Problem:
    """Read and parse a problem file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(IO, f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(SCHEMA, f"invalid JSON in {path}: {exc}") from exc
    return parse_problem(doc)


def fixture_path(name: str) -> Path:
    """Path of a bundled example problem (see :data:`FIXTURES`)."""
    if name not in FIXTURES:
        raise InputError(IO, f"unknown example {name!r} (known: {sorted(FIXTURES)})")
    return Path(resources.files("smaaflow") / "fixtures" / FIXTURES[name])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _num(x: float):
    xf = float(x)
    return int(xf) if xf == int(xf) and abs(xf) < 1e15 else xf


def _render_tfn(v: TFN) -> list:
    return [_num(v.m), _num(v.alpha), _num(v.beta)]


def _render_value(v: StochasticValue) -> object:
    if v.kind == "crisp":
        return _num(v.value)
    if v.kind == "linguistic":
        return v.term
    if v.kind == "fuzzy":
        return {"tfn": _render_tfn(v.tfn)}
    if v.kind == "interval":
        return [_num(v.lo), _num(v.hi)]
    spec = {"mean": _num(v.mean), "sd": _num(v.sd)}
    if np.isfinite(v.lo):
        spec["min"] = _num(v.lo)
    if np.isfinite(v.hi):
        spec["max"] = _num(v.hi)
    return {"normal": spec}


def _render_weights(spec: WeightSpec) -> object:
    if spec.kind == "missing":
        return {"missing": True}
    if spec.kind == "interval":
        return {"interval": [[_num(lo), _num(hi)] for lo, hi in spec.values]}
    if spec.kind == "deterministic":
        return {"deterministic": [_num(w) for w in spec.values]}
    return {"ordinal": list(spec.values)}


def _render_model(model: PreferenceModel) -> dict:
    out: dict = {"shape": model.shape, "direction": model.direction}
    for name in THRESHOLDS[model.shape]:
        out[name] = _num(model.s) if name == "s" else _render_value(getattr(model, name))
    return out


def problem_to_document(problem: Problem) -> dict:
    """Canonical JSON form; parsing it back yields an equivalent problem."""

    def render_node(node):
        out = {"label": node.label}
        if node.children:
            out["weights"] = _render_weights(node.child_weights)
            out["children"] = [render_node(c) for c in node.children]
        else:
            slot = problem.tree.elementary_index[node.path]
            bound = problem.scale_binding[slot] if problem.scale_binding else None
            if bound is not None and bound != problem.default_scale:
                out["scale"] = bound
        return out

    doc: dict = {"schema": SCHEMA_VERSION}
    if problem.name is not None:
        doc["name"] = problem.name
    if problem.notes is not None:
        doc["notes"] = problem.notes
    doc["categories"] = list(problem.categories)
    if problem.scales:
        doc["scales"] = {
            name: {"terms": [[t, _render_tfn(v)] for t, v in scale.terms]}
            for name, scale in sorted(problem.scales.items())
        }
    if problem.default_scale is not None:
        doc["default_scale"] = problem.default_scale
    doc["tree"] = {
        "weights": _render_weights(problem.tree.root_weights),
        "children": [render_node(n) for n in problem.tree.first_level],
    }
    doc["profiles"] = {
        "per_criterion": {
            problem.tree.label_path(path): [
                _render_value(problem.profile_specs[h][slot])
                for h in range(len(problem.profile_specs))
            ]
            for slot, path in enumerate(problem.tree.elementary_paths)
        }
    }
    doc["preferences"] = {
        "per_criterion": {
            problem.tree.label_path(path): _render_model(problem.preference_models[slot])
            for slot, path in enumerate(problem.tree.elementary_paths)
        }
    }
    doc["alternatives"] = {
        name: {
            problem.tree.label_path(path): _render_value(problem.evaluation_specs[i][slot])
            for slot, path in enumerate(problem.tree.elementary_paths)
        }
        for i, name in enumerate(problem.alternative_names)
    }
    doc["smaa"] = {
        "iterations": problem.defaults.iterations,
        "seed": problem.defaults.seed,
        "rule": problem.defaults.rule,
        "defuzz": problem.defaults.defuzz,
    }
    return doc


def dump_problem(problem: Problem) -> str:
    return json.dumps(problem_to_document(problem), indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

REPORT_LEVELS = ("category", "first-level", "all-nodes")
REPORT_FORMATS = ("text", "csv")


def _node_rows(result, problem, level):
    """(label, depth, acceptability matrix row index) per reported node."""
    rows = []
    for idx, path in enumerate(result.node_paths):
        if level == "first-level" and len(path) != 1:
            continue
        rows.append((problem.tree.label_path(path), len(path), idx))
    return rows


def _assigned(categories, row, threshold):
    """Category name with the highest index, starred below the threshold."""
    total = row.sum()
    if total <= 0:
        return "n/a"
    best = int(np.argmax(row))
    name = categories[best]
    return name if row[best] >= threshold else f"{name}*"


def _percentages(row) -> list[int]:
    """Integer percentages by largest remainder, preserving the row total."""
    scaled = row * 100.0
    floors = np.floor(scaled).astype(int)
    target = int(np.rint(scaled.sum()))
    short = target - int(floors.sum())
    if short > 0:
        order = np.argsort(-(scaled - floors), kind="stable")
        floors[order[:short]] += 1
    return floors.tolist()


def write_report(result, problem, level: str = "category", fmt: str = "text",
                 threshold: float = 0.5) -> str:
    """Render an acceptability result.

    ``level`` picks the granularity: ``category`` reports the overall index
    only, ``first-level`` adds one block per first-level criterion and
    ``all-nodes`` covers every node of the tree.  ``fmt`` is ``text`` for a
    human-readable report or ``csv`` for one row per (alternative, node)
    with full-precision indices.
    """
    if level not in REPORT_LEVELS:
        raise ValueError(f"unknown report level {level!r}")
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt == "csv":
        return _csv_report(result, problem, level)
    return _text_report(result, problem, level, threshold)


def _csv_report(result, problem, level) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["alternative", "node", *result.categories, "assigned"])
    node_rows = _node_rows(result, problem, level) if level != "category" else []
    for i, alt in enumerate(result.alternatives):
        row = result.category_index[i]
        writer.writerow([alt, "overall", *[repr(float(v)) for v in row],
                         _assigned(result.categories, row, threshold=0.0)])
        for label, _, idx in node_rows:
            row = result.node_index[idx, i]
            writer.writerow([alt, label, *[repr(float(v)) for v in row],
                             _assigned(result.categories, row, threshold=0.0)])
    return buf.getvalue()


def _text_report(result, problem, level, threshold) -> str:
    categories = list(result.categories)
    lines = []
    title = problem.name or "sorting problem"
    lines.append(f"Category acceptability: {title}")
    lines.append(
        f"rule={result.rule}  iterations={result.iterations}  seed={result.seed}  "
        f"defuzz={result.defuzz}"
    )
    if result.boundary_violations:
        lines.append(f"boundary violations recorded: {result.boundary_violations}")
    lines.append("")

    alt_w = max(len("Alternative"), *(len(a) for a in result.alternatives)) + 2
    cat_w = [max(len(c), 4) for c in categories]
    header = "Alternative".ljust(alt_w) + "".join(
        c.rjust(w + 2) for c, w in zip(categories, cat_w)
    ) + "  Final"
    lines.append("Acceptability of each category (%)")
    lines.append(header)
    starred = False
    for i, alt in enumerate(result.alternatives):
        row = result.category_index[i]
        pct = _percentages(row)
        final = _assigned(categories, row, threshold)
        starred = starred or final.endswith("*")
        lines.append(
            alt.ljust(alt_w)
            + "".join(str(v).rjust(w + 2) for v, w in zip(pct, cat_w))
            + "  " + final
        )
    if starred:
        lines.append(f"(*) best acceptability below {_num(threshold * 100)}%")
    lines.append("")

    if level == "first-level":
        rows = _node_rows(result, problem, level)
        lab_w = max(len("Criterion"), *(len(r[0]) for r in rows)) + 2
        col_w = [max(len(a), 4) for a in result.alternatives]
        lines.append("Assignments by first-level criterion (net single-criterion flows)")
        lines.append("Criterion".ljust(lab_w) + "".join(
            a.rjust(w + 2) for a, w in zip(result.alternatives, col_w)
        ))
        for label, _, idx in rows:
            cells = [
                _assigned(categories, result.node_index[idx, i], threshold=0.0)
                for i in range(len(result.alternatives))
            ]
            lines.append(label.ljust(lab_w) + "".join(
                c.rjust(w + 2) for c, w in zip(cells, col_w)
            ))
        lines.append("")
    elif level == "all-nodes":
        rows = _node_rows(result, problem, level)
        lines.append("Assignments per tree node (net single-criterion flows)")
        for i, alt in enumerate(result.alternatives):
            lines.append(f"-- {alt} --")
            for label, depth, idx in rows:
                short = label.rsplit("/", 1)[-1]
                row = result.node_index[idx, i]
                pct = _percentages(row)
                best = _assigned(categories, row, threshold=0.0)
                detail = "  ".join(f"{c}={v}%" for c, v in zip(categories, pct))
                lines.append(f"  L{depth} {'  ' * (depth - 1)}{short:<14} -> {best:<12} {detail}")
            lines.append("")

    return "\n".join(lines) + "\n"
