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
must stay scalar, so the string and tfn forms are rejected there.  Every
number must be finite (:func:`~smaaflow.hierarchy.is_number`): ``NaN`` and
``Infinity``, which ``json.loads`` reads, are rejected.

Validation failures raise :class:`~smaaflow.errors.InputError` with a
stable code and the path of the offending field.  The cells of a section
(the thresholds, the profile levels, the evaluations) are each read once,
into one :class:`_Cells` reader per section, which checks them all at once
and reports the first fault in reading order.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EVALUATION_BOUNDS,
    IO,
    MISSING_EVALUATION,
    PROFILE_DOMINANCE,
    SCHEMA,
    THRESHOLD,
    UNKNOWN_TERM,
    InputError,
)
from .flows import (
    RULES,
    ProfileSet,
    check_profile_column,
    profile_envelope,
    profile_pair_faults,
)
from .fuzzy import DEFUZZ_METHODS, TFN
from .hierarchy import CriteriaTree, WeightSpec, build_tree, is_number
from .preference import DIRECTIONS, ORDERED_PAIRS, SHAPES, THRESHOLDS, PreferenceSpec
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

    def index(self, term: str) -> int:
        """Position of ``term`` in :attr:`terms`."""
        for i, (label, _) in enumerate(self.terms):
            if label == term:
                return i
        raise InputError(
            UNKNOWN_TERM,
            f"term {term!r} not in scale {self.name!r} "
            f"(known: {[t for t, _ in self.terms]})",
        )

    def lookup(self, term: str) -> TFN:
        return self.terms[self.index(term)][1]


@dataclass(frozen=True)
class RunDefaults:
    """Per-problem defaults for the analysis, overridable from the CLI."""

    iterations: int = 10_000
    seed: int = 0
    rule: str = "net"
    defuzz: str = "centroid"


#: Forms of the cells of an evaluation or profile table; a cell holding a
#: linguistic term stores the term's index in its scale (0 and up).
CRISP, FUZZY, STOCHASTIC = -1, -2, -3


@dataclass(eq=False)
class Problem:
    """A fully validated sorting problem.

    Evaluations are held as arrays: ``fixed_evals[i, t]`` is the (m,
    alpha, beta) of alternative i on elementary criterion t when that cell
    is deterministic and zeros when it is not, ``evaluation_forms[i, t]``
    says how the cell was written (:data:`CRISP`, :data:`FUZZY`,
    :data:`STOCHASTIC` or a term index), and ``sampled_evals`` lists the
    stochastic cells as (i, t, value), row by row.  Profiles are held the
    same way, level h (best first) in place of alternative i:
    ``fixed_profiles``, ``profile_forms`` and ``sampled_profiles``.
    :attr:`evaluation_specs` and :attr:`profile_specs` build one value per
    cell from them on first use.
    """

    tree: CriteriaTree
    categories: tuple[str, ...]
    alternative_names: tuple[str, ...]
    fixed_evals: np.ndarray                                    # (m, n_el, 3), read-only
    evaluation_forms: np.ndarray                               # (m, n_el)
    sampled_evals: tuple[tuple[int, int, StochasticValue], ...]
    fixed_profiles: np.ndarray                                 # (k+1, n_el, 3), read-only
    profile_forms: np.ndarray                                  # (k+1, n_el)
    sampled_profiles: tuple[tuple[int, int, StochasticValue], ...]
    preference_models: tuple[PreferenceModel, ...]             # n_el
    #: True when evaluations, profiles and thresholds carry no randomness.
    is_deterministic_data: bool
    scales: dict[str, LinguisticScale] = field(default_factory=dict)
    scale_binding: tuple[str | None, ...] = ()
    default_scale: str | None = None
    defaults: RunDefaults = field(default_factory=RunDefaults)
    name: str | None = None
    notes: str | None = None

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    @cached_property
    def evaluation_specs(self) -> tuple[tuple[StochasticValue, ...], ...]:
        """One value per evaluation cell, (m, n_el), built from the tables
        on first use."""
        return _cell_values(self.fixed_evals, self.evaluation_forms, self.sampled_evals,
                            [self.scales.get(name) for name in self.scale_binding])

    @cached_property
    def profile_specs(self) -> tuple[tuple[StochasticValue, ...], ...]:
        """One value per profile level, (k+1, n_el), built from the tables
        on first use."""
        return _cell_values(self.fixed_profiles, self.profile_forms, self.sampled_profiles,
                            [self.scales.get(name) for name in self.scale_binding])

    def resolved_preferences(self) -> list[PreferenceSpec]:
        return [m.resolve_deterministic() for m in self.preference_models]

    def resolved_profile_set(self) -> ProfileSet:
        if self.sampled_profiles:  # raises: a sampled level has no fixed value
            self.sampled_profiles[0][2].resolved()
        return ProfileSet([[TFN(*f) for f in row] for row in self.fixed_profiles.tolist()])

    def evaluation_tfns(self, name: str) -> list[TFN]:
        row = self.evaluation_specs[self.alternative_names.index(name)]
        return [v.resolved() for v in row]


def _cell_values(table, forms, sampled, scales) -> tuple[tuple[StochasticValue, ...], ...]:
    """One value per cell of a (rows, cols, 3) table of deterministic values,
    its (rows, cols) forms and its stochastic cells as (row, col, value), as
    :meth:`_Cells.table` returns them.  Column ``col`` reads its terms from
    ``scales[col]``."""
    stochastic = {(r, c): v for r, c, v in sampled}
    out = []
    for r, (cells, row_forms) in enumerate(zip(table.tolist(), forms.tolist())):
        row = []
        for c, (cell, form) in enumerate(zip(cells, row_forms)):
            if form == CRISP:
                row.append(StochasticValue.crisp(cell[0]))
            elif form == FUZZY:
                row.append(StochasticValue.fuzzy(TFN(*cell)))
            elif form == STOCHASTIC:
                row.append(stochastic[r, c])
            else:
                row.append(StochasticValue.linguistic(*scales[c].terms[form]))
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _require(cond: bool, message: str, at: str, code: str = SCHEMA) -> None:
    if not cond:
        raise InputError(code, message, at)


def _parse_tfn_triple(obj, at: str) -> TFN:
    _require(
        isinstance(obj, Sequence) and len(obj) == 3 and all(is_number(v) for v in obj),
        "expected [mode, left spread, right spread]", at,
    )
    try:
        return TFN(float(obj[0]), float(obj[1]), float(obj[2]))
    except ValueError as exc:
        raise InputError(SCHEMA, str(exc), at) from exc


def _unrecognized(obj, at: str) -> InputError:
    return InputError(SCHEMA, f"unrecognized value form {obj!r}", at)


def _read_value(obj, scale: LinguisticScale | None, at: str, cells: list, j: int):
    """Read one evaluation, profile level or threshold written at ``at``.

    A deterministic value writes its (m, alpha, beta) to ``cells[3j:3j+3]``
    and returns its form: :data:`CRISP`, :data:`FUZZY` or the index of its
    term in ``scale``.  A stochastic value is checked here and returned;
    its constructor's ``ValueError`` (an empty interval or truncation) is
    left to :meth:`_Cells.read`.
    A float, alone or in a list of three floats under ``tfn``, is written
    unchecked: :class:`_Cells` checks every cell read for numbers that
    are not finite and for negative spreads, and words the error this
    reader would raise.  Plain ``float``, ``str``, ``list`` and ``dict`` are
    recognized by their exact type; any other object is tried as a number
    (:func:`~smaaflow.hierarchy.is_number`), a string, a sequence and a
    mapping, in that order.
    """
    kind = type(obj)
    if kind is float:
        cells[3 * j] = obj
        return CRISP
    if kind is not dict and kind is not list and kind is not str:
        if is_number(obj):
            cells[3 * j] = float(obj)
            return CRISP
        kind = (str if isinstance(obj, str)
                else list if isinstance(obj, Sequence) and not isinstance(obj, bytes)
                else dict if isinstance(obj, Mapping) else None)
    if kind is str:
        if scale is None:
            raise InputError(
                UNKNOWN_TERM, f"term {obj!r} given but no scale is bound here", at
            )
        try:
            index = scale.index(obj)
        except InputError as exc:
            raise InputError(exc.code, str(exc), at) from exc
        f = scale.terms[index][1]
        cells[3 * j:3 * j + 3] = f.m, f.alpha, f.beta
        return index
    if kind is list:
        _require(len(obj) == 2 and all(is_number(v) for v in obj),
                 "interval must be [lo, hi]", at)
        return StochasticValue.interval(obj[0], obj[1])
    if kind is dict:
        if len(obj) == 1 and "tfn" in obj:
            triple = obj["tfn"]
            if (type(triple) is list and len(triple) == 3 and type(triple[0]) is float
                    and type(triple[1]) is float and type(triple[2]) is float):
                cells[3 * j:3 * j + 3] = triple
            else:
                f = _parse_tfn_triple(triple, f"{at}/tfn")
                cells[3 * j:3 * j + 3] = f.m, f.alpha, f.beta
            return FUZZY
        if len(obj) == 1 and "normal" in obj:
            spec = obj["normal"]
            _require(isinstance(spec, Mapping), "normal spec must be a mapping", at)
            unknown = set(spec) - {"mean", "sd", "min", "max"}
            if unknown:
                raise InputError(SCHEMA, f"unknown normal keys {sorted(unknown)}", at)
            _require(is_number(spec.get("mean")) and is_number(spec.get("sd")),
                     "normal needs numeric mean and sd", at)
            _require(spec["sd"] > 0, "normal sd must be positive", at)
            _require(all(is_number(spec[end]) for end in ("min", "max") if end in spec),
                     "normal min and max must be numbers", at)
            return StochasticValue.normal(spec["mean"], spec["sd"], spec.get("min", -np.inf),
                                          spec.get("max", np.inf))
    raise _unrecognized(obj, at)


class _Cells:
    """The cells of one section, each read once by :func:`_read_value`.

    Cell ``j`` keeps its (m, alpha, beta) in ``values[3j:3j+3]`` and its
    form in ``forms[j]``, and ``sampled`` maps each stochastic cell to its
    value; ``order`` and ``paths`` list the cells read, and where they were
    written, in reading order.

    Used as a context manager around the walk of its section, the reader
    checks every cell read when the walk ends or raises, and raises the
    first fault in reading order; only when there is none does an error of
    the walk pass.  A cell's own faults are a number that is not finite and
    a negative spread.  ``faults(cells, got)``, if given, raises the first
    fault that the section itself finds among the cells read before the
    first faulty one, ``got`` holding their (m, alpha, beta) rows in
    reading order: a section fault may sit at any cell but depends on none
    after it, and a cell's own fault comes before it at the same cell.
    """

    def __init__(self, n: int, faults=None):
        self.values = [0.0] * (3 * n)
        self.forms = [STOCHASTIC] * n
        self.sampled: dict[int, StochasticValue] = {}
        self.order: list[int] = []
        self.paths: list[str] = []
        self.faults = faults

    def read(self, obj, scale: LinguisticScale | None, at: str, j: int):
        """Read ``obj``, written at ``at``, into cell ``j``; returns what
        :func:`_read_value` returns."""
        try:
            value = _read_value(obj, scale, at, self.values, j)
        except ValueError as exc:
            raise InputError(SCHEMA, str(exc), at) from exc
        if type(value) is int:
            self.forms[j] = value
        else:
            self.sampled[j] = value
        self.order.append(j)
        self.paths.append(at)
        return value

    def __enter__(self) -> "_Cells":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and not issubclass(kind, InputError):
            return
        self.array = np.array(self.values).reshape(-1, 3)  # kept for table()
        got = self.array[self.order]
        # cells read as inf or nan are flagged here, without a warning
        with np.errstate(invalid="ignore"):
            bad = ~(np.isfinite(got).all(axis=1) & (got[:, 1:] >= 0).all(axis=1))
        first = int(bad.argmax()) if bad.any() else len(got)
        if self.faults is not None:
            self.faults(self, got[:first])
        if first < len(got):  # only to word the error
            cell, at = got[first].tolist(), self.paths[first]
            if self.forms[self.order[first]] == CRISP:
                raise _unrecognized(cell[0], at)
            _parse_tfn_triple(cell, f"{at}/tfn")

    def table(self, cols: int):
        """The cells as ``(values, forms, sampled)``: a read-only (rows,
        cols, 3) table of deterministic values, zeros at stochastic cells,
        its (rows, cols) forms and the stochastic cells as (row, col,
        value), row by row."""
        values = self.array.reshape(-1, cols, 3)
        values.flags.writeable = False
        return (values, np.array(self.forms, dtype=np.int32).reshape(-1, cols),
                tuple((*divmod(j, cols), v) for j, v in sorted(self.sampled.items())))


#: The default of an absent q or p.
_ZERO = StochasticValue.crisp(0.0)


def _parse_threshold(obj, at: str, cells: _Cells, j: int) -> StochasticValue:
    """Read a threshold into cell ``j`` of ``cells``."""
    value = cells.read(obj, None, at, j)
    if type(value) is int:  # no scale here, so a number or a tfn
        _require(value == CRISP, "thresholds must be scalar: number, [lo, hi] or normal",
                 at, THRESHOLD)
        value = StochasticValue.crisp(cells.values[3 * j])
    # PreferenceSpec checks crisp values; a stochastic one may not draw below 0
    if value.lo < 0:
        raise InputError(THRESHOLD, f"{value.kind} threshold can draw below 0 "
                         f"(lower end {value.lo})", at)
    return value


def _support(value: StochasticValue) -> tuple[float, float]:
    """Lowest and highest value a threshold can take."""
    return (value.value, value.value) if value.kind == "crisp" else (value.lo, value.hi)


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


def _elementary_slot(tree: CriteriaTree, label_path: str, at: str) -> int:
    slot = tree.elementary_slot.get(label_path) if isinstance(label_path, str) else None
    if slot is not None:
        return slot
    _require(isinstance(label_path, str), f"criterion key must be a label path string, "
             f"got {label_path!r}", at)
    try:  # only to word the error
        tree.path_of_labels(label_path)
    except InputError as exc:
        raise InputError(SCHEMA, str(exc), at) from exc
    raise InputError(SCHEMA, f"{label_path!r} is not an elementary criterion", at)


def _section(raw, tree: CriteriaTree, at: str, fallback=None) -> list[tuple[object, str]]:
    """Read a ``{"default", "per_criterion"}`` section: one ``(entry,
    path)`` per elementary slot, its ``per_criterion`` entry or else the
    default.  Without a default a slot gets ``(fallback, at)``."""
    _require(isinstance(raw, Mapping), f"{at} must be a mapping", at)
    unknown = set(raw) - {"default", "per_criterion"}
    _require(not unknown, f"unknown {at} keys {sorted(unknown)}", at)
    per = raw.get("per_criterion")
    _require(per is None or isinstance(per, Mapping), "per_criterion must be a mapping",
             f"{at}/per_criterion")
    default = (raw["default"], f"{at}/default") if "default" in raw else (fallback, at)
    entries = [default] * tree.n_elementary
    for label_path, entry in (per or {}).items():
        here = f"{at}/per_criterion/{label_path}"
        entries[_elementary_slot(tree, label_path, here)] = (entry, here)
    return entries


def _preference_model(spec, at: str, cells: _Cells, j: int) -> PreferenceModel:
    """Read one model; its q and p go to cells ``j`` and ``j + 1``."""
    _require(isinstance(spec, Mapping), "preference spec must be a mapping", at)
    unknown = set(spec) - {"shape", "direction", "q", "p", "s"}
    if unknown:
        raise InputError(SCHEMA, f"unknown preference keys {sorted(unknown)}", at)
    shape = spec.get("shape", "usual")
    if shape not in SHAPES:
        raise InputError(SCHEMA, f"unknown shape {shape!r} (known: {SHAPES})", at)
    direction = spec.get("direction", "maximize")
    if direction not in DIRECTIONS:
        raise InputError(SCHEMA, f"unknown direction {direction!r}", at)
    q, p = (_parse_threshold(spec[name], f"{at}/{name}", cells, j + i) if name in spec
            else _ZERO for i, name in enumerate(("q", "p")))
    s = spec.get("s", 0.0)
    _require(is_number(s) and s >= 0, "s must be a non-negative number", at)
    for name, unset in (("q", q == _ZERO), ("p", p == _ZERO), ("s", s == 0)):
        if not (unset or name in THRESHOLDS[shape]):
            raise InputError(THRESHOLD, f"shape {shape!r} does not use threshold {name!r}",
                             f"{at}/{name}")
    model = PreferenceModel(shape=shape, direction=direction, q=q, p=p, s=float(s))
    if model.is_deterministic:  # PreferenceSpec checks the crisp thresholds
        try:
            model.resolve_deterministic()
        except ValueError as exc:
            raise InputError(THRESHOLD, str(exc), at) from exc
    elif shape in ORDERED_PAIRS:  # a sampled pair needs some ordered draw
        (q_lo, q_hi), (p_lo, p_hi) = _support(q), _support(p)
        # a tie can be drawn only where both thresholds are single points
        if not (q_lo < p_hi or (not ORDERED_PAIRS[shape] and q_lo == q_hi == p_lo == p_hi)):
            raise InputError(THRESHOLD, f"{shape} thresholds can never be ordered: q starts "
                             f"at {q_lo}, p ends at {p_hi}", at)
    return model


def _parse_preferences(raw, tree, at: str = "preferences") -> list[PreferenceModel]:
    """One model per elementary slot; the q and p of slot t are cells 2t
    and 2t + 1 of one reader."""
    with _Cells(2 * tree.n_elementary) as cells:
        # a missing section or default is the usual shape, maximized
        return [_preference_model(spec, here, cells, 2 * slot) for slot, (spec, here)
                in enumerate(_section({} if raw is None else raw, tree, at, fallback={}))]


def _most_ordered(columns: np.ndarray, sampled: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  maximize: np.ndarray) -> np.ndarray:
    """Profile columns as in :func:`~smaaflow.flows.profile_pair_faults`,
    (n, k+1, 3), with each ``sampled`` level, (n, k+1), set to the value in
    its range [``lo``, ``hi``] that leaves the most room to the better
    levels: from the worst level up, the least (the greatest on a minimized
    column) that clears the level below it, or the nearest end of its range.

    A sampled level has no spreads, and clearing the level below only gets
    harder as that level moves towards the better ones, so the column can be
    ordered by some choice of values inside the ranges exactly when the
    returned column shows no pair fault.
    """
    out = columns.copy()
    up = np.asarray(maximize)
    with np.errstate(over="ignore"):
        for h in range(out.shape[1] - 1, -1, -1):
            least, most = -np.inf, np.inf
            if h + 1 < out.shape[1]:
                m, alpha, beta = out[:, h + 1].T
                least = np.maximum(np.nextafter(m, np.inf), m + beta)
                most = np.minimum(np.nextafter(m, -np.inf), m - alpha)
            value = np.clip(np.where(up, least, most), lo[:, h], hi[:, h])
            out[:, h, 0] = np.where(sampled[:, h], value, out[:, h, 0])
    return out


def _parse_profiles(raw, tree, models, scales, k, at: str = "profiles"):
    """The (k+1, n_el, 3) table of deterministic profile levels (zeros at
    stochastic ones), its (k+1, n_el) forms, the stochastic levels as
    (level, slot, value), level by level, and the (n_el, 2) support span
    of each column, (-inf, inf) where a column is stochastic.

    Columns are read in slot order, each best level first, into cells
    stored level-major.  Besides its cells' own checks, each column's
    profile order is checked at its last cell: a deterministic column as it
    is, and a column with sampled levels for some choice of values inside
    their ranges (see :func:`_most_ordered`), which the profile sampler
    would otherwise look for in vain.
    """
    labels = list(tree.elementary_slot)
    n_el, c = tree.n_elementary, k + 1
    entries = _section(raw, tree, at)
    maximize = np.array([mdl.direction == "maximize" for mdl in models], dtype=bool)

    def order_faults(cells, got):
        done = len(got) // c  # whole columns among the cells read
        columns = got[:done * c].reshape(done, c, 3)
        sampled = np.array(cells.forms).reshape(c, n_el)[:, :done].T == STOCHASTIC
        chosen = columns
        if sampled.any():
            ends = np.full((done, c, 2), [-np.inf, np.inf])
            for j, value in cells.sampled.items():
                h, t = divmod(j, n_el)
                if t < done:
                    ends[t, h] = value.lo, value.hi
            chosen = _most_ordered(columns, sampled, ends[..., 0], ends[..., 1], maximize[:done])
        with np.errstate(invalid="ignore"):  # nan steps between infinite choices
            dominance, overlap = profile_pair_faults(chosen, maximize[:done])
        # a level that only infinity clears, past a support end that
        # overflows, is never drawn there
        beyond = np.where(maximize[:done, None], np.inf, -np.inf)
        dominance |= sampled[:, :-1] & (chosen[:, :-1, 0] == beyond)
        bad = (dominance | overlap).any(axis=-1)
        if not bad.any():
            return
        t = int(bad.argmax())  # only to word the error
        direction = models[t].direction
        if not sampled[t].any():
            check_profile_column(columns[t], direction, labels[t], entries[t][1])
        # the pair nearest the worst level, where the choice from below first fails
        h = c - 2 - int((dominance | overlap)[t, ::-1].argmax())
        raise InputError(PROFILE_DOMINANCE, f"profile {h + 1} can never dominate profile "
                         f"{h + 2} on criterion {labels[t]} (at best {chosen[t, h, 0]} vs "
                         f"{chosen[t, h + 1, 0]}, {direction})", entries[t][1])

    with _Cells(c * n_el, order_faults) as cells:
        for slot, (values, here) in enumerate(entries):
            _require(here != at, f"no profiles for {labels[slot]!r} and no default", at)
            _require(isinstance(values, Sequence) and not isinstance(values, (str, bytes)),
                     "profile column must be a list", here)
            _require(len(values) == c,
                     f"need {c} profile levels for {k} categories, got {len(values)}", here)
            for h, value in enumerate(values):
                cells.read(value, scales[slot], f"{here}/{h}", h * n_el + slot)
    table = cells.table(n_el)
    envelope = profile_envelope(table[0].swapaxes(0, 1))
    envelope[(table[1] == STOCHASTIC).any(axis=0)] = -np.inf, np.inf
    return (*table, envelope)


def _parse_alternatives(raw, tree, scales, envelope, at: str = "alternatives"):
    """Names, the (m, n_el, 3) table of deterministic evaluations (zeros at
    stochastic cells), its (m, n_el) forms and the stochastic cells as
    (row, slot, value), row by row.

    Alternatives are read in document order, each by key order.  Besides
    its own checks, each evaluation is checked against the profile
    ``envelope`` of its criterion.
    """
    _require(isinstance(raw, Mapping) and raw, "alternatives must be a non-empty mapping", at)
    labels = list(tree.elementary_slot)
    n_el = tree.n_elementary

    def envelope_faults(cells, got):
        order = np.array(cells.order[:len(got)], dtype=np.intp)
        lo, hi = envelope[order % n_el].T
        with np.errstate(over="ignore"):
            s_lo, s_hi = got[:, 0] - got[:, 1], got[:, 0] + got[:, 2]
        sampled = np.array(cells.forms)[order] == STOCHASTIC
        if sampled.any():
            s_lo[sampled], s_hi[sampled] = np.array(
                [(v.lo, v.hi) for v in map(cells.sampled.get, order[sampled].tolist())]).T
        # a deterministic support must lie inside the envelope, a stochastic one reach it
        outside = np.where(sampled, (s_hi < lo) | (s_lo > hi), (s_lo < lo) | (s_hi > hi))
        if outside.any():  # only to word the error
            p = int(outside.argmax())
            span = f"the profile span [{float(lo[p])}, {float(hi[p])}]"
            if sampled[p]:
                v = cells.sampled[int(order[p])]
                raise InputError(EVALUATION_BOUNDS, f"{v.kind} [{v.lo}, {v.hi}] cannot reach "
                                 f"{span}", cells.paths[p])
            raise InputError(EVALUATION_BOUNDS, f"evaluation support [{float(s_lo[p])}, "
                             f"{float(s_hi[p])}] leaves {span}", cells.paths[p])

    names = []
    with _Cells(len(raw) * n_el, envelope_faults) as cells:
        for i, (name, values) in enumerate(raw.items()):
            here = f"{at}/{name}"
            _require(isinstance(name, str) and name, "alternative names must be non-empty strings", at)
            _require(isinstance(values, Mapping), "alternative must map criteria to values", here)
            names.append(name)
            for label_path, value in values.items():
                cell = f"{here}/{label_path}"
                slot = _elementary_slot(tree, label_path, cell)
                cells.read(value, scales[slot], cell, i * n_el + slot)
            if len(values) < n_el:  # every key read names a distinct leaf
                missing = [label for label in labels if label not in values]
                raise InputError(
                    MISSING_EVALUATION,
                    f"alternative {name!r} lacks evaluations for {missing}",
                    here,
                )
    return (tuple(names), *cells.table(n_el))


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
    for node in tree.nodes:  # depth first, so the first bad binding in document order
        if node.scale is not None:
            here = "tree" + "".join(f"/children/{i - 1}" for i in node.path)
            _require(isinstance(node.scale, str), "scale must be a name", here)
            _require(node.is_elementary, "only elementary criteria bind a scale", here)
            _require(node.scale in scales, f"unknown scale {node.scale!r}", here)
    binding = tuple(node.scale or default_scale for node in tree.nodes if node.is_elementary)
    slot_scales = [scales[name] if name else None for name in binding]

    models = _parse_preferences(doc.get("preferences"), tree)
    fixed_profiles, profile_forms, sampled_profiles, envelope = _parse_profiles(
        doc["profiles"], tree, models, slot_scales, k)
    names, fixed_evals, forms, sampled_evals = _parse_alternatives(
        doc["alternatives"], tree, slot_scales, envelope)
    defaults = _parse_smaa(doc.get("smaa"))

    name = doc.get("name")
    notes = doc.get("notes")
    for label, value in (("name", name), ("notes", notes)):
        _require(value is None or isinstance(value, str), f"{label} must be a string", label)

    return Problem(
        tree=tree,
        categories=tuple(categories),
        alternative_names=names,
        fixed_evals=fixed_evals,
        evaluation_forms=forms,
        sampled_evals=sampled_evals,
        fixed_profiles=fixed_profiles,
        profile_forms=profile_forms,
        sampled_profiles=sampled_profiles,
        preference_models=tuple(models),
        is_deterministic_data=(not sampled_evals and not sampled_profiles
                               and all(m.is_deterministic for m in models)),
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
    labels = [problem.tree.label_path(path) for path in problem.tree.elementary_paths]
    doc["alternatives"] = {
        name: {label: _render_value(v) for label, v in zip(labels, row)}
        for name, row in zip(problem.alternative_names, problem.evaluation_specs)
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
    """Labels and depths of the nodes that ``level`` reports, as two lists,
    and their (alternatives, nodes, k) index rows as one C-contiguous array,
    whose rows are bytes to key on and sum as on one alternative's slab."""
    idx = [r for r, path in enumerate(result.node_paths)
           if level == "all-nodes" or (level == "first-level" and len(path) == 1)]
    paths = [result.node_paths[r] for r in idx]
    return ([problem.tree.label_path(path) for path in paths], [len(path) for path in paths],
            np.ascontiguousarray(result.node_index[idx].swapaxes(0, 1)))


def _assigned(categories, rows, threshold) -> list:
    """Per row of ``rows`` (last axis: categories), the name of the category
    with the highest index (the first one on ties), starred below
    ``threshold``, or ``"n/a"`` where the row sums to 0 or less.  Nested
    lists shaped like ``rows`` without its last axis."""
    rows = np.asarray(rows)
    k = rows.shape[-1]
    best = rows.argmax(axis=-1)
    top = np.take_along_axis(rows, best[..., None], axis=-1)[..., 0]
    # label codes: names 0..k-1, starred names k..2k-1, "n/a" 2k
    code = np.where(rows.sum(axis=-1) <= 0, 2 * k, best + k * (top < threshold))
    labels = np.array([*categories, *(f"{c}*" for c in categories), "n/a"], dtype=object)
    # asarray: a single row indexes to a bare str
    return np.asarray(labels[code], dtype=object).tolist()


def _percentages(rows) -> list:
    """Integer percentages of each row of ``rows`` (last axis: categories)
    by largest remainder, preserving each row's rounded total: the
    members with the largest remainders (the first ones on ties) get one
    point more.  Nested lists shaped like ``rows``."""
    scaled = np.asarray(rows) * 100.0
    floors = np.floor(scaled)
    short = np.rint(scaled.sum(axis=-1, keepdims=True)) - floors.sum(axis=-1, keepdims=True)
    order = np.argsort(floors - scaled, axis=-1, kind="stable")
    bonus = np.zeros_like(floors)
    np.put_along_axis(bonus, order, np.arange(scaled.shape[-1]) < short, axis=-1)
    return (floors + bonus).astype(int).tolist()


def write_report(result, problem, level: str = "category", fmt: str = "text",
                 threshold: float = 0.5) -> str:
    """Render an acceptability result.

    ``level`` picks the granularity: ``category`` reports the overall index
    only, ``first-level`` adds one block per first-level criterion and
    ``all-nodes`` covers every node of the tree.  ``fmt`` is ``text`` for a
    human-readable report or ``csv`` for one row per (alternative, node)
    with full-precision indices.  Each distinct index row is rendered once
    per call, and every name in the CSV is quoted by the csv module itself.
    """
    if level not in REPORT_LEVELS:
        raise ValueError(f"unknown report level {level!r}")
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt == "csv":
        return _csv_report(result, problem, level)
    return _text_report(result, problem, level, threshold)


class _Memo(dict):
    """``render(key)`` of each key, rendered once, on its first lookup."""

    def __init__(self, render):
        self.render = render

    def __missing__(self, key):
        self[key] = value = self.render(key)
        return value


def _csv_cell(text: str) -> str:
    """``text`` as csv.writer writes it in a row of more than one cell."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _csv_report(result, problem, level) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["alternative", "node", *result.categories, "assigned"])
    labels, _, slabs = _node_rows(result, problem, level)
    # csv writes floats by repr, so indices keep full precision
    overall = result.category_index
    finals = _assigned(result.categories, overall, threshold=0.0)
    bests = _assigned(result.categories, slabs, threshold=0.0)
    cell = _Memo(_csv_cell)
    heads = [cell[label] + "," for label in labels]
    # rows keyed by their bytes, rendered from Python floats, whose repr is
    # what csv.writer writes (a numpy float's repr names its type)
    raw = slabs.view(f"V{slabs.shape[-1] * slabs.itemsize}")[..., 0].tolist()
    tail = _Memo(lambda key: ",".join(map(repr, memoryview(key[0]).cast(slabs.dtype.char)
                                          .tolist())) + "," + cell[key[1]] + "\n")
    for alt, row, final, rows, best_row in zip(result.alternatives, overall.tolist(), finals,
                                               raw, bests):
        writer.writerow([alt, "overall", *row, final])
        head = cell[alt] + ","
        buf.write("".join([head + node + tail[r, best]
                           for node, r, best in zip(heads, rows, best_row)]))
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
    finals = _assigned(categories, result.category_index, threshold)
    for alt, pct, final in zip(result.alternatives, _percentages(result.category_index),
                               finals):
        lines.append(
            alt.ljust(alt_w)
            + "".join(str(v).rjust(w + 2) for v, w in zip(pct, cat_w))
            + "  " + final
        )
    if any(final.endswith("*") for final in finals):
        lines.append(f"(*) best acceptability below {_num(threshold * 100)}%")
    lines.append("")

    if level == "first-level":
        labels, _, slabs = _node_rows(result, problem, level)
        lab_w = max(len("Criterion"), *(len(label) for label in labels)) + 2
        col_w = [max(len(a), 4) for a in result.alternatives]
        lines.append("Assignments by first-level criterion (net single-criterion flows)")
        lines.append("Criterion".ljust(lab_w) + "".join(
            a.rjust(w + 2) for a, w in zip(result.alternatives, col_w)
        ))
        cells = _assigned(categories, slabs, threshold=0.0)
        for label, row in zip(labels, zip(*cells)):
            lines.append(label.ljust(lab_w) + "".join(
                c.rjust(w + 2) for c, w in zip(row, col_w)
            ))
        lines.append("")
    elif level == "all-nodes":
        labels, depths, slabs = _node_rows(result, problem, level)
        prefixes = [f"  L{depth} {'  ' * (depth - 1)}{label.rsplit('/', 1)[-1]:<14} -> "
                    for label, depth in zip(labels, depths)]
        escaped = (c.replace("{", "{{").replace("}", "}}") for c in categories)
        template = "{:<12} " + "  ".join(f"{c}={{}}%" for c in escaped)
        detail = _Memo(lambda key: template.format(key[0], *key[1]))
        lines.append("Assignments per tree node (net single-criterion flows)")
        for alt, bests, pcts in zip(result.alternatives,
                                    _assigned(categories, slabs, threshold=0.0),
                                    _percentages(slabs)):
            lines.append(f"-- {alt} --")
            lines += [prefix + detail[best, tuple(pct)]
                      for prefix, best, pct in zip(prefixes, bests, pcts)]
            lines.append("")

    return "\n".join(lines) + "\n"
