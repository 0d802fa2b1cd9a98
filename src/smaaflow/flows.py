"""Hierarchical FlowSort: outranking, flows and category assignment.

Alternatives are sorted into ordered categories C_1 (best) through C_k by
comparing each alternative against k+1 limiting profiles r_1 (best) through
r_{k+1}.  Preference degrees on elementary criteria are aggregated bottom-up
through the criteria tree with the node weights, defuzzified at the root
into an outranking degree, and turned into positive, negative and net flows
within the reference set {r_1, ..., r_{k+1}, x}.  Flows of the profiles
bracket the flow of the alternative, which pins down its category.

Flows are linear in the preference degrees, so the net flows under any
node of the tree are the weighted sum of per-leaf unicriterion flows.
:class:`BatchEngine` is the one flow engine: it reduces each data draw to
per-leaf flow tables once, aggregates their net columns children-first for
whole batches of weight vectors, and weights the positive and negative
tables by each leaf's path-product weight for the whole tree.
:func:`flow_bundle`, :func:`single_criterion_flows` and their relatives
run the same engine on a single weight row.  The pairwise degrees
(:func:`subtree_preference`, :func:`outranking_degree`) follow the
recursive definitions directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    PROFILE_DOMINANCE,
    PROFILE_OVERLAP,
    SCHEMA,
    BoundaryViolation,
    InputError,
    InvariantError,
)
from .fuzzy import TFN
from .hierarchy import CriteriaTree
from .preference import PreferenceArrays, PreferenceSpec, fuzzy_preference

#: Assignment rules: which flow brackets the alternative between profiles.
RULES = ("positive", "negative", "net")

#: Slack allowed when asserting that profile flows are ordered.
ORDERING_TOL = 1e-9


class FlowTriple(NamedTuple):
    plus: float
    minus: float
    net: float


@dataclass(frozen=True)
class FlowBundle:
    """Flows of one alternative and of the profiles in its reference set."""

    alternative: FlowTriple
    profiles: tuple[FlowTriple, ...]


@dataclass(frozen=True)
class Assignment:
    """Categories (1-based, 1 = best) under the three assignment rules."""

    by_positive: int
    by_negative: int
    by_net: int


@dataclass(frozen=True)
class SingleCriterionFlows:
    """Net flows restricted to one subtree of the criteria hierarchy."""

    net: float
    profile_net: tuple[float, ...]


class ProfileSet:
    """The k+1 limiting profiles, best first, per elementary criterion.

    ``levels[h][t]`` is the evaluation of profile r_{h+1} on the t-th
    elementary criterion in tree order.
    """

    def __init__(self, levels: Sequence[Sequence[TFN]]):
        rows = tuple(tuple(row) for row in levels)
        if len(rows) < 2:
            raise InputError(SCHEMA, "need at least two limiting profiles", "profiles")
        if len({len(row) for row in rows}) != 1:
            raise InputError(SCHEMA, "profile rows differ in length", "profiles")
        self.levels = rows

    @property
    def category_count(self) -> int:
        return len(self.levels) - 1

    @property
    def n_criteria(self) -> int:
        return len(self.levels[0])

    def validate(self, prefs: Sequence[PreferenceSpec]) -> None:
        """Check that successive profiles strictly dominate each other
        (see :func:`profile_pair_faults`)."""
        if len(prefs) != self.n_criteria:
            raise InputError(SCHEMA, "profiles and preference specs differ in length")
        for t, spec in enumerate(prefs):
            column = [row[t] for row in self.levels]
            maximize = spec.direction == "maximize"
            dominance, overlap = profile_pair_faults(tfn_matrix(column), maximize)
            bad = dominance | overlap
            if not bad.any():
                continue
            h = int(bad.argmax())
            if dominance[h]:
                raise InputError(PROFILE_DOMINANCE, f"profile {h + 1} does not dominate profile "
                                 f"{h + 2} on criterion {t} ({column[h].m} vs {column[h + 1].m}, "
                                 f"{spec.direction})")
            raise InputError(PROFILE_OVERLAP,
                             f"supports of profiles {h + 1} and {h + 2} overlap on criterion {t}")


def profile_pair_faults(columns: np.ndarray, maximize: bool) -> tuple[np.ndarray, np.ndarray]:
    """Dominance and overlap faults of every adjacent profile pair.

    ``columns`` holds one criterion's profiles as (..., k+1, 3) rows of
    (m, alpha, beta), best first.  Modes must be strictly ordered in the
    preference direction, and the supports of adjacent profiles may touch
    but not overlap.  Returns two (..., k) masks: entry h is true where
    profiles h and h+1 break the mode ordering, or where their supports
    overlap.
    """
    better, worse = columns[..., :-1, :], columns[..., 1:, :]
    sign = 1.0 if maximize else -1.0
    dominance = sign * (better[..., 0] - worse[..., 0]) <= 0
    upper, lower = (better, worse) if maximize else (worse, better)
    overlap = upper[..., 0] - upper[..., 1] < lower[..., 0] + lower[..., 2]
    return dominance, overlap


def _check_vector(tree: CriteriaTree, name: str, values: Sequence) -> None:
    if len(values) != tree.n_elementary:
        raise InputError(
            SCHEMA,
            f"{name} has {len(values)} entries, tree has {tree.n_elementary} "
            "elementary criteria",
        )


def subtree_preference(
    tree: CriteriaTree,
    path: tuple[int, ...],
    weights: Mapping[tuple[int, ...], float],
    prefs: Sequence[PreferenceSpec],
    a: Sequence[TFN],
    b: Sequence[TFN],
) -> TFN:
    """Fuzzy preference of ``a`` over ``b`` aggregated within one subtree.

    For an elementary node this is the fuzzy preference degree on that
    criterion; for an internal node it is the weighted sum over children.
    The node's own weight is not applied.
    """
    node = tree.node(path)
    if node.is_elementary:
        slot = tree.elementary_index[path]
        return fuzzy_preference(prefs[slot], a[slot], b[slot])
    total = TFN(0.0)
    for child in node.children:
        total = total + weights[child.path] * subtree_preference(
            tree, child.path, weights, prefs, a, b
        )
    return total


def fuzzy_outranking(
    tree: CriteriaTree,
    weights: Mapping[tuple[int, ...], float],
    prefs: Sequence[PreferenceSpec],
    a: Sequence[TFN],
    b: Sequence[TFN],
) -> TFN:
    """Fuzzy aggregated preference of ``a`` over ``b`` across the whole tree."""
    _check_vector(tree, "evaluation vector", a)
    _check_vector(tree, "evaluation vector", b)
    _check_vector(tree, "preference list", prefs)
    total = TFN(0.0)
    for node in tree.first_level:
        total = total + weights[node.path] * subtree_preference(
            tree, node.path, weights, prefs, a, b
        )
    return total


def outranking_degree(
    tree: CriteriaTree,
    weights: Mapping[tuple[int, ...], float],
    prefs: Sequence[PreferenceSpec],
    a: Sequence[TFN],
    b: Sequence[TFN],
    defuzz: str = "centroid",
) -> float:
    """Crisp outranking degree pi(a, b), the defuzzified aggregate."""
    return fuzzy_outranking(tree, weights, prefs, a, b).defuzzify(defuzz)


def _single_run(tree, weights, prefs, profiles, x, defuzz) -> BatchFlows:
    """Run the engine for one alternative under one weight assignment."""
    _check_vector(tree, "alternative", x)
    if profiles.n_criteria != tree.n_elementary:
        raise InputError(SCHEMA, "profiles and tree differ in elementary count")
    profiles.validate(prefs)
    engine = BatchEngine(tree, 1, len(profiles.levels))
    components = engine.pref_components(
        prefs, tfn_matrix(x)[None], np.array([tfn_matrix(r) for r in profiles.levels]), defuzz
    )
    w = np.array([[weights[n.path] for n in tree.nodes]])
    return engine.flows(engine.node_values(components, w))


def flow_bundle(
    tree: CriteriaTree,
    weights: Mapping[tuple[int, ...], float],
    prefs: Sequence[PreferenceSpec],
    profiles: ProfileSet,
    x: Sequence[TFN],
    defuzz: str = "centroid",
) -> FlowBundle:
    """Flows of alternative ``x`` and of every profile, within the reference
    set R = {r_1, ..., r_{k+1}, x}.

    Each flow averages outranking degrees against the other members of R,
    so the normalizer is |R| - 1 = k + 1; the alternative is compared to the
    profiles only, each profile to its peers and to the alternative.
    """
    bf = _single_run(tree, weights, prefs, profiles, x, defuzz)
    alt = FlowTriple(
        float(bf.alt_plus[0, 0]), float(bf.alt_minus[0, 0]), float(bf.node_alt_net[-1, 0, 0])
    )
    rows = zip(bf.prof_plus[0, 0], bf.prof_minus[0, 0], bf.node_prof_net[-1, 0, 0])
    return FlowBundle(
        alternative=alt,
        profiles=tuple(FlowTriple(float(p), float(n), float(v)) for p, n, v in rows),
    )


def alternative_flows(tree, weights, prefs, profiles, x, defuzz="centroid") -> FlowTriple:
    """Positive, negative and net flow of one alternative."""
    return flow_bundle(tree, weights, prefs, profiles, x, defuzz).alternative


def profile_flows(tree, weights, prefs, profiles, x, defuzz="centroid") -> tuple[FlowTriple, ...]:
    """Flows of every profile relative to alternative ``x``, best first."""
    return flow_bundle(tree, weights, prefs, profiles, x, defuzz).profiles


def _bracket(alt: float, prof: Sequence[float], what: str) -> int:
    """Category of one flow under :func:`net_style_bracket`.

    C_h requires prof[h-1] >= alt > prof[h]; an alternative whose flow ties a
    profile's flow lands in the upper category.

    Raises
    ------
    InvariantError
        If the profile flows are not non-increasing.
    BoundaryViolation
        If the profile flows do not bracket ``alt``.
    """
    prof = np.asarray(prof, dtype=float)
    if (np.diff(prof) > ORDERING_TOL).any():
        raise InvariantError(
            f"{what} of successive profiles are not non-increasing: {prof.tolist()}"
        )
    cat, valid = net_style_bracket(np.float64(alt), prof)
    if not valid:
        raise BoundaryViolation(
            f"{what} {alt} falls outside the profile span ({prof[-1]}, {prof[0]}]"
        )
    return int(cat)


def assign(bundle: FlowBundle, rule: str = "net") -> int:
    """Category of the bundled alternative under one assignment rule.

    Raises
    ------
    BoundaryViolation
        If the alternative's flow falls outside the span of the profile
        flows, i.e. the profiles do not bracket it.
    """
    if rule not in RULES:
        raise ValueError(f"unknown assignment rule {rule!r}")
    if rule == "negative":
        alt, prof = bundle.alternative.minus, np.array([t.minus for t in bundle.profiles])
        if (np.diff(prof) < -ORDERING_TOL).any():
            raise InvariantError(
                f"negative flows of successive profiles are not non-decreasing: {prof.tolist()}"
            )
        cat, valid = negative_bracket(np.float64(alt), prof)
        if not valid:
            raise BoundaryViolation(
                f"negative flow {alt} falls outside the profile span ({prof[0]}, {prof[-1]}]"
            )
        return int(cat)
    if rule == "positive":
        return _bracket(bundle.alternative.plus, [t.plus for t in bundle.profiles],
                        "positive flows")
    return _bracket(bundle.alternative.net, [t.net for t in bundle.profiles], "net flows")


def assignments(bundle: FlowBundle) -> Assignment:
    """Categories under all three rules."""
    return Assignment(
        by_positive=assign(bundle, "positive"),
        by_negative=assign(bundle, "negative"),
        by_net=assign(bundle, "net"),
    )


def single_criterion_flows(
    tree: CriteriaTree,
    weights: Mapping[tuple[int, ...], float],
    prefs: Sequence[PreferenceSpec],
    profiles: ProfileSet,
    x: Sequence[TFN],
    path: tuple[int, ...],
    defuzz: str = "centroid",
) -> SingleCriterionFlows:
    """Net flows of ``x`` and the profiles under one subtree only.

    The subtree's aggregated preference degrees (without the node's own
    weight) replace the overall outranking degree in the net-flow formulas,
    which provides a per-criterion diagnostic at any level of the tree.
    """
    idx = tree.node_index[tree.node(path).path]
    bf = _single_run(tree, weights, prefs, profiles, x, defuzz)
    return SingleCriterionFlows(
        net=float(bf.node_alt_net[idx, 0, 0]),
        profile_net=tuple(float(v) for v in bf.node_prof_net[idx, 0, 0]),
    )


def single_criterion_assignment(flows: SingleCriterionFlows) -> int:
    """Category suggested by one subtree's net flows."""
    return _bracket(flows.net, flows.profile_net, "single-criterion net flows")


# ---------------------------------------------------------------------------
# Batched evaluation
# ---------------------------------------------------------------------------

def tfn_matrix(values: Sequence[TFN]) -> np.ndarray:
    """Stack fuzzy numbers into an (n, 3) array of (m, alpha, beta) rows."""
    return np.array([[v.m, v.alpha, v.beta] for v in values], dtype=float)


@dataclass
class BatchFlows:
    """Flow arrays for a batch of weight vectors.

    Node axes cover every tree node plus, at index -1, the whole tree.
    ``node_alt_net`` is (nodes+1, batch, m); ``node_prof_net`` is
    (nodes+1, batch, m, k+1).  The positive/negative pairs exist for the
    root only, shaped (batch, m) and (batch, m, k+1).  ``leaf_prof_net``
    holds the net profile flows of every leaf on its own, shaped
    (m, k+1, n_el) per data draw: one draw when the components are shared
    across the batch, else one per batch row.
    """

    node_alt_net: np.ndarray
    node_prof_net: np.ndarray
    alt_plus: np.ndarray
    alt_minus: np.ndarray
    prof_plus: np.ndarray
    prof_minus: np.ndarray
    leaf_prof_net: np.ndarray


class NodeValues(NamedTuple):
    """Aggregated flow columns of a batch, as :meth:`BatchEngine.flows` reads them."""

    nodes: np.ndarray  # (nodes+1, batch, n_pairs) net flow rows, whole tree last
    root: np.ndarray  # (batch, 2 * n_pairs) positive then negative flow rows
    leaves: np.ndarray  # ([batch,] n_pairs, n_el) net flow rows per leaf


def net_style_bracket(alt: np.ndarray, prof: np.ndarray):
    """Vectorized bracketing for decreasing profile flows.

    Returns 1-based categories and a validity mask; invalid entries fall
    outside the profile span.
    """
    valid = (alt <= prof[..., 0]) & (alt > prof[..., -1])
    cat = 1 + (prof[..., 1:] >= alt[..., None]).sum(axis=-1)
    return cat, valid


def negative_bracket(alt: np.ndarray, prof: np.ndarray):
    """Vectorized bracketing for increasing negative flows."""
    valid = (alt > prof[..., 0]) & (alt <= prof[..., -1])
    cat = (prof[..., :-1] < alt[..., None]).sum(axis=-1)
    return cat, valid


class BatchEngine:
    """Evaluates flows for many weight vectors from per-leaf flow tables.

    A node's value row holds, for every alternative x_i, the net flows of
    the members of its reference set R_i = {x_i, r_1, ..., r_{k+1}}, the
    alternative first.  Aggregation and defuzzification are linear in the
    three components of a fuzzy number, so each leaf contributes one crisp
    flow table per data draw; node rows are weighted sums of their
    children's rows, and the whole tree's positive and negative flows are
    the leaf tables weighted by each leaf's path-product weight.
    """

    def __init__(self, tree: CriteriaTree, n_alternatives: int, n_profiles: int):
        self.tree = tree
        self.m = n_alternatives
        self.c = n_profiles
        self.n_nodes = len(tree.nodes)
        self.root = self.n_nodes
        # width of a node's value row; the per-layer trace reads it
        self.n_pairs = self.m * (self.c + 1)
        self.elem_slot = np.array(
            [tree.elementary_index.get(n.path, -1) for n in tree.nodes], dtype=np.int64
        )
        self.children = [
            [tree.node_index[c.path] for c in n.children] for n in tree.nodes
        ]
        self.first_level = [tree.node_index[n.path] for n in tree.first_level]
        self.parent = [tree.node_index.get(n.path[:-1], -1) for n in tree.nodes]
        self.leaf_nodes = [tree.node_index[p] for p in tree.elementary_paths]

    # -- per-leaf flow tables ----------------------------------------------

    def pref_components(self, prefs, evals: np.ndarray, profiles: np.ndarray, defuzz: str):
        """Net, positive and negative flow tables of every leaf for one data draw.

        Parameters
        ----------
        prefs :
            A sequence of :class:`PreferenceSpec` or their
            :class:`PreferenceArrays`, one entry per leaf.
        evals : (m, n_el, 3) array
        profiles : (c, n_el, 3) array

        Returns
        -------
        (3 * n_pairs, n_el) array: the net flows of every reference set
        on each leaf alone, laid out like a node's value row, then the
        positive and the negative flows in the same layout.
        """
        prefs = prefs if isinstance(prefs, PreferenceArrays) else PreferenceArrays.of(prefs)
        c, m = self.c, self.m
        n_el = evals.shape[1]
        a = np.concatenate(
            [
                np.repeat(evals, c, axis=0),
                np.tile(profiles, (m, 1, 1)),
                np.repeat(profiles, c, axis=0),
            ]
        )
        b = np.concatenate(
            [
                np.tile(profiles, (m, 1, 1)),
                np.repeat(evals, c, axis=0),
                np.tile(profiles, (c, 1, 1)),
            ]
        )
        p0, p_lo, p_hi = prefs.fuzzy_degrees(a, b)
        if defuzz == "centroid":
            pair = p0 + (p_hi + p_lo - 2.0 * p0) / 3.0
        elif defuzz == "spread-sum":
            pair = p0 + (p_hi - p_lo) / 3.0
        else:
            raise ValueError(f"unknown defuzzification method {defuzz!r}")
        # Leaf-major blocks, so every sum runs over a contiguous profile
        # axis, and net flows summed from pair differences rather than taken
        # as positive minus negative: an alternative equal to a profile ties
        # it exactly, and this rounding decides its category in the reports.
        pair = np.ascontiguousarray(pair.T)
        both = pair[:, : 2 * m * c].reshape(n_el, 2, m, c)
        x_over_r, r_over_x = both[:, 0], both[:, 1]  # P(x_i, r_h), P(r_h, x_i)
        r_over_r = pair[:, 2 * m * c :].reshape(n_el, c, c)  # P(r_h, r_l)
        diag = np.einsum("...hh->...h", r_over_r)
        row = r_over_r.sum(axis=-1) - diag  # sum over l != h of P(r_h, r_l)
        col = r_over_r.sum(axis=-2) - diag  # sum over l != h of P(r_l, r_h)
        diff = x_over_r - r_over_x
        out = np.empty((n_el, 3, m, c + 1))
        out[:, 0, :, 0] = diff.sum(axis=-1)
        out[:, 0, :, 1:] = (row - col)[:, None, :] - diff
        out[:, 1:, :, 0] = both.sum(axis=-1)
        out[:, 1, :, 1:] = row[:, None, :] + r_over_x
        out[:, 2, :, 1:] = col[:, None, :] + x_over_r
        out /= c
        return out.reshape(n_el, 3 * self.n_pairs).T

    # -- node values and flows --------------------------------------------

    def node_values(self, components: np.ndarray, w: np.ndarray) -> NodeValues:
        """Aggregate per-leaf flow tables into per-node flow rows.

        ``components`` is (3 * n_pairs, n_el) when shared across the batch
        or (batch, 3 * n_pairs, n_el) otherwise; ``w`` is (batch, n_nodes)
        holding every node's weight within its sibling group.
        """
        n = self.n_pairs
        leaves = components[..., :n, :]
        batch = w.shape[0]
        values = np.empty((self.n_nodes + 1, batch, n))
        for idx in range(self.n_nodes - 1, -1, -1):
            slot = self.elem_slot[idx]
            if slot >= 0:
                # (n_pairs,) broadcasts over the batch in the shared case
                values[idx] = leaves[..., slot]
            else:
                kids = self.children[idx]
                acc = w[:, kids[0], None] * values[kids[0]]
                for k in kids[1:]:
                    acc += w[:, k, None] * values[k]
                values[idx] = acc
        acc = w[:, self.first_level[0], None] * values[self.first_level[0]]
        for k in self.first_level[1:]:
            acc += w[:, k, None] * values[k]
        values[self.root] = acc

        path = np.empty_like(w)
        for idx, parent in enumerate(self.parent):
            path[:, idx] = w[:, idx] if parent < 0 else path[:, parent] * w[:, idx]
        path = path[:, self.leaf_nodes]
        root = path[:, 0, None] * components[..., n:, 0]
        for slot in range(1, path.shape[1]):
            root += path[:, slot, None] * components[..., n:, slot]
        return NodeValues(values, root, leaves)

    def flows(self, values: NodeValues) -> BatchFlows:
        """Flows for every node and the root from the aggregated rows."""
        rows = (self.m, self.c + 1)
        nodes = values.nodes.reshape(values.nodes.shape[:-1] + rows)
        root = values.root.reshape((-1, 2) + rows)
        plus, minus = root[:, 0], root[:, 1]
        leaves = values.leaves.reshape(values.leaves.shape[:-2] + rows + (-1,))
        return BatchFlows(
            node_alt_net=nodes[..., 0],
            node_prof_net=nodes[..., 1:],
            alt_plus=plus[..., 0],
            alt_minus=minus[..., 0],
            prof_plus=plus[..., 1:],
            prof_minus=minus[..., 1:],
            leaf_prof_net=leaves[..., 1:, :],
        )

    def check_ordering(self, batch_flows: BatchFlows) -> None:
        """Assert the bracketing premise: profile flows ordered best to worst.

        Every node's net flows are a convex combination of its leaves', so
        checking the leaf tables covers every node.
        """
        worst = np.diff(batch_flows.leaf_prof_net, axis=-2).max()
        if worst > ORDERING_TOL:
            raise InvariantError(
                f"net profile flows are not non-increasing (max increase {worst})"
            )
        if np.diff(batch_flows.prof_plus, axis=-1).max() > ORDERING_TOL:
            raise InvariantError("positive profile flows are not non-increasing")
        if np.diff(batch_flows.prof_minus, axis=-1).min() < -ORDERING_TOL:
            raise InvariantError("negative profile flows are not non-decreasing")

    def assign_overall(self, batch_flows: BatchFlows, rule: str):
        """Categories (batch, m) and validity mask under the requested rule."""
        if rule == "positive":
            return net_style_bracket(batch_flows.alt_plus, batch_flows.prof_plus)
        if rule == "negative":
            return negative_bracket(batch_flows.alt_minus, batch_flows.prof_minus)
        if rule == "net":
            return net_style_bracket(
                batch_flows.node_alt_net[self.root], batch_flows.node_prof_net[self.root]
            )
        raise ValueError(f"unknown assignment rule {rule!r}")

    def assign_nodes(self, batch_flows: BatchFlows):
        """Net-style categories (nodes, batch, m) for every real tree node."""
        return net_style_bracket(
            batch_flows.node_alt_net[: self.n_nodes],
            batch_flows.node_prof_net[: self.n_nodes],
        )
