"""Criteria hierarchies: tree structure, weight specifications, traversal.

A criteria tree is a rooted forest of first-level criteria; every internal
node aggregates its children with weights that sum to one, and the leaves
(elementary criteria) are where evaluations live.  Nodes are addressed by
1-based index paths such as ``(2, 1)`` (second first-level criterion, first
child) or by slash-joined label paths such as ``"G2/g21"``.

Weights for a sibling group can be given in four ways:

``deterministic``  exact values, summing to one
``ordinal``        importance ranks (1 = most important, ties allowed,
                   ``None`` = unranked)
``interval``       [lo, hi] bounds per sibling
``missing``        no information at all

Only deterministic specs fix the weights; the other kinds describe sets of
admissible weight vectors that get sampled during acceptability analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import SCHEMA, WEIGHT_SPEC, InputError

WEIGHT_KINDS = ("deterministic", "ordinal", "interval", "missing")

#: Tolerance for "weights sum to one" checks.
WEIGHT_SUM_TOL = 1e-9


def is_number(x) -> bool:
    """The one number rule for problem files: a finite int or float.

    ``json.loads`` reads ``NaN`` and ``Infinity``; neither is a number here,
    and neither is a bool.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _is_list(x) -> bool:
    return isinstance(x, Sequence) and not isinstance(x, (str, bytes))


#: The entries each weight kind lists in a problem file: their description
#: and a test for one entry.
_WEIGHT_ENTRIES = {
    "deterministic": ("numbers", is_number),
    "ordinal": ("integer ranks or null", lambda r: r is None or (is_number(r) and r == int(r))),
    "interval": ("[lo, hi] pairs of numbers",
                 lambda b: _is_list(b) and len(b) == 2 and all(map(is_number, b))),
}


@dataclass(frozen=True)
class WeightSpec:
    """Weight information for one sibling group.

    ``values`` depends on ``kind``: floats for ``deterministic``, ranks
    (int or None) for ``ordinal``, (lo, hi) pairs for ``interval`` and the
    empty tuple for ``missing``.
    """

    kind: str
    values: tuple = ()

    @classmethod
    def deterministic(cls, weights: Iterable[float]) -> "WeightSpec":
        return cls("deterministic", tuple(float(w) for w in weights))

    @classmethod
    def ordinal(cls, ranks: Iterable[int | None]) -> "WeightSpec":
        return cls("ordinal", tuple(None if r is None else int(r) for r in ranks))

    @classmethod
    def interval(cls, bounds: Iterable[Sequence[float]]) -> "WeightSpec":
        return cls("interval", tuple((float(lo), float(hi)) for lo, hi in bounds))

    @classmethod
    def missing(cls) -> "WeightSpec":
        return cls("missing", ())

    @classmethod
    def from_spec(cls, obj, at: str | None = None) -> "WeightSpec":
        """Build from the JSON-level representation.

        ``None``, ``"missing"`` and ``{"missing": true}`` mean no
        information; otherwise a mapping with exactly one of the kind keys
        is expected, listing finite numbers (see :func:`is_number`):
        weights, integral ranks or null, or [lo, hi] bounds.
        """
        if obj is None or obj == "missing":
            return cls.missing()
        if isinstance(obj, WeightSpec):
            return obj
        if not isinstance(obj, Mapping):
            raise InputError(SCHEMA, f"weight spec must be a mapping, got {type(obj).__name__}", at)
        kinds = [k for k in WEIGHT_KINDS if k in obj]
        if len(kinds) != 1 or len(obj) != 1:
            raise InputError(SCHEMA, f"weight spec needs exactly one of {WEIGHT_KINDS}", at)
        kind = kinds[0]
        if kind == "missing":
            if obj[kind] is not True:
                raise InputError(SCHEMA, f"missing weight spec must be true, got {obj[kind]!r}", at)
            return cls.missing()
        form, is_entry = _WEIGHT_ENTRIES[kind]
        values = obj[kind]
        if not (_is_list(values) and all(is_entry(v) for v in values)):
            raise InputError(SCHEMA, f"malformed {kind} weight spec: expected a list of {form}, "
                             f"got {values!r}", at)
        return getattr(cls, kind)(values)

    def validate(self, n: int, at: str | None = None) -> None:
        """Check consistency for a sibling group of size ``n``."""
        if self.kind not in WEIGHT_KINDS:
            raise InputError(WEIGHT_SPEC, f"unknown weight kind {self.kind!r}", at)
        if self.kind == "missing":
            if self.values:
                raise InputError(WEIGHT_SPEC, "missing spec carries no values", at)
            return
        if len(self.values) != n:
            raise InputError(
                WEIGHT_SPEC, f"expected {n} entries, got {len(self.values)}", at
            )
        if self.kind == "deterministic":
            if any(w <= 0 for w in self.values):
                raise InputError(WEIGHT_SPEC, f"weights must be positive: {self.values}", at)
            if abs(sum(self.values) - 1.0) > WEIGHT_SUM_TOL:
                raise InputError(
                    WEIGHT_SPEC, f"weights must sum to 1, got {sum(self.values)!r}", at
                )
        elif self.kind == "ordinal":
            for r in self.values:
                if r is not None and r < 1:
                    raise InputError(WEIGHT_SPEC, f"ranks start at 1, got {r}", at)
        else:  # interval
            lo_sum = hi_sum = 0.0
            for lo, hi in self.values:
                if not (0.0 <= lo <= hi <= 1.0):
                    raise InputError(
                        WEIGHT_SPEC, f"interval bounds must satisfy 0 <= lo <= hi <= 1, got [{lo}, {hi}]", at
                    )
                lo_sum += lo
                hi_sum += hi
            if lo_sum > 1.0 + WEIGHT_SUM_TOL or hi_sum < 1.0 - WEIGHT_SUM_TOL:
                raise InputError(
                    WEIGHT_SPEC,
                    f"no weight vector sums to 1 within bounds (sum lo = {lo_sum}, sum hi = {hi_sum})",
                    at,
                )

    @property
    def is_deterministic(self) -> bool:
        return self.kind == "deterministic"


@dataclass(frozen=True)
class CriterionNode:
    """A node of the criteria tree; elementary iff it has no children.

    ``scale`` is the node's ``scale`` entry as written; the problem parser
    checks that it names a known scale, and only on a leaf.
    """

    path: tuple[int, ...]
    label: str
    children: tuple["CriterionNode", ...] = ()
    child_weights: WeightSpec | None = None
    scale: str | None = None

    @property
    def is_elementary(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class SiblingGroup:
    """A parent's children together with their weight specification."""

    parent_path: tuple[int, ...]  # () for the first level
    spec: WeightSpec
    members: tuple[tuple[int, ...], ...]


def _build_node(obj: Mapping, path: tuple[int, ...], at: str) -> CriterionNode:
    if not isinstance(obj, Mapping):
        raise InputError(SCHEMA, f"tree node must be a mapping, got {type(obj).__name__}", at)
    unknown = set(obj) - {"label", "children", "weights", "scale"}
    if unknown:
        raise InputError(SCHEMA, f"unknown tree node keys {sorted(unknown)}", at)
    label = obj.get("label")
    if not isinstance(label, str) or not label:
        raise InputError(SCHEMA, "tree node needs a non-empty string label", at)
    if "/" in label:
        raise InputError(SCHEMA, f"label may not contain '/': {label!r}", at)
    raw_children = obj.get("children", [])
    if not _is_list(raw_children):
        raise InputError(SCHEMA, "children must be a list", f"{at}/children")
    children = tuple(
        _build_node(child, path + (i + 1,), f"{at}/children/{i}")
        for i, child in enumerate(raw_children)
    )
    seen: set[str] = set()
    for child in children:
        if child.label in seen:
            raise InputError(SCHEMA, f"duplicate sibling label {child.label!r}", f"{at}/children")
        seen.add(child.label)
    weights = None
    if children:
        weights = WeightSpec.from_spec(obj.get("weights"), f"{at}/weights")
        weights.validate(len(children), f"{at}/weights")
    elif "weights" in obj:
        raise InputError(SCHEMA, "elementary criteria carry no child weights", f"{at}/weights")
    return CriterionNode(path, label, children, weights, obj.get("scale"))


class CriteriaTree:
    """An immutable criteria hierarchy with precomputed traversal tables.

    Nodes are stored in depth-first order, parents before children, which
    makes the elementary criteria of any subtree a contiguous slice of the
    elementary order.
    """

    def __init__(self, first_level: Sequence[CriterionNode], root_weights: WeightSpec):
        if not first_level:
            raise InputError(SCHEMA, "tree needs at least one first-level criterion", "tree")
        self.first_level = tuple(first_level)
        self.root_weights = root_weights
        root_weights.validate(len(self.first_level), "tree/weights")

        nodes: list[CriterionNode] = []
        elementary: list[tuple[int, ...]] = []
        labels: list[str] = []

        def visit(node: CriterionNode, label_path: str) -> None:
            nodes.append(node)
            if node.is_elementary:
                elementary.append(node.path)
                labels.append(label_path)
            else:
                for child in node.children:
                    visit(child, f"{label_path}/{child.label}")

        for node in self.first_level:
            visit(node, node.label)

        self.nodes: tuple[CriterionNode, ...] = tuple(nodes)
        self.elementary_paths: tuple[tuple[int, ...], ...] = tuple(elementary)
        self.elementary_index: dict[tuple[int, ...], int] = {
            p: i for i, p in enumerate(elementary)
        }
        #: leaf label path (``"G2/g21"``) -> elementary slot, in slot order
        self.elementary_slot: dict[str, int] = {l: i for i, l in enumerate(labels)}
        self._by_path: dict[tuple[int, ...], CriterionNode] = {n.path: n for n in nodes}
        self.node_index: dict[tuple[int, ...], int] = {n.path: i for i, n in enumerate(nodes)}
        self.depth = max(len(p) for p in elementary)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def n_elementary(self) -> int:
        return len(self.elementary_paths)

    def node(self, path: tuple[int, ...]) -> CriterionNode:
        try:
            return self._by_path[path]
        except KeyError:
            raise InputError(SCHEMA, f"no node at path {path}") from None

    def label_path(self, path: tuple[int, ...]) -> str:
        self.node(path)
        parts = [self._by_path[path[: i + 1]].label for i in range(len(path))]
        return "/".join(parts)

    def path_of_labels(self, label_path: str) -> tuple[int, ...]:
        """Resolve ``"A/B/C"`` to an index path."""
        path: tuple[int, ...] = ()
        siblings = self.first_level
        for part in label_path.split("/"):
            match = next((n for n in siblings if n.label == part), None)
            if match is None:
                raise InputError(SCHEMA, f"no criterion named {label_path!r}")
            path = match.path
            siblings = match.children
        return path

    def sibling_groups(self) -> tuple[SiblingGroup, ...]:
        """All weighted sibling groups, first level first, then DFS order."""
        groups = [
            SiblingGroup((), self.root_weights, tuple(n.path for n in self.first_level))
        ]
        for node in self.nodes:
            if not node.is_elementary:
                groups.append(
                    SiblingGroup(
                        node.path, node.child_weights, tuple(c.path for c in node.children)
                    )
                )
        return tuple(groups)

    def deterministic_weights(self) -> dict[tuple[int, ...], float]:
        """Concrete weight of every node, assuming all specs are deterministic.

        Raises
        ------
        InputError
            If any sibling group has a non-deterministic specification.
        """
        weights: dict[tuple[int, ...], float] = {}
        for group in self.sibling_groups():
            if not group.spec.is_deterministic:
                where = "/".join(map(str, group.parent_path)) or "first level"
                raise InputError(
                    WEIGHT_SPEC,
                    f"weights at {where} are {group.spec.kind}, not deterministic",
                )
            for path, w in zip(group.members, group.spec.values):
                weights[path] = w
        return weights


def build_tree(children: Sequence[Mapping], root_weights=None) -> CriteriaTree:
    """Build a validated criteria tree from nested node mappings.

    Parameters
    ----------
    children : sequence of mappings
        First-level criteria, each ``{"label": ..., "children": [...],
        "weights": ...}``.  A node's ``weights`` entry specifies how its
        children are weighted; omitted means missing information.
    root_weights :
        Weight specification for the first-level group itself.
    """
    if not _is_list(children):
        raise InputError(SCHEMA, "tree children must be a list", "tree/children")
    first_level = tuple(
        _build_node(obj, (i + 1,), f"tree/children/{i}") for i, obj in enumerate(children)
    )
    seen: set[str] = set()
    for node in first_level:
        if node.label in seen:
            raise InputError(SCHEMA, f"duplicate sibling label {node.label!r}", "tree/children")
        seen.add(node.label)
    spec = WeightSpec.from_spec(root_weights, "tree/weights")
    return CriteriaTree(first_level, spec)
