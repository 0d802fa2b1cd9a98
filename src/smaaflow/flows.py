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
per-leaf flow tables once, a chunk of draws per call, aggregates their net
columns children-first for whole batches of weight vectors, and, for a
rule that brackets by them, weights the positive or negative tables by
each leaf's path-product weight for the whole tree.
:func:`flow_bundle`, :func:`single_criterion_flows` and their relatives
run the same engine on a single weight row.  The pairwise degrees
(:func:`subtree_preference`, :func:`outranking_degree`) come from the same
preference kernel and the same children-first aggregation, applied to one
pair's (m, alpha, beta) rows.  One rule table drives bracketing:
:func:`bracket` and :func:`check_profile_order` serve the single-evaluation
and the batch paths alike.
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
from .fuzzy import DEFUZZ_METHODS, TFN
from .hierarchy import CriteriaTree
from .preference import PreferenceArrays, PreferenceSpec

#: Assignment rules: the flow each one brackets, as its index in
#: :class:`FlowTriple`, and the sign of that flow's step from one profile to
#: the next (negative flows rise from r_1 to r_{k+1}, the others fall).
_RULE_TABLE = {"positive": (0, -1), "negative": (1, 1), "net": (2, -1)}
RULES = tuple(_RULE_TABLE)

#: Slack allowed when asserting that profile flows are ordered.
ORDERING_TOL = 1e-9

#: Bytes of pair points per :meth:`BatchEngine.pref_components` call in
#: :meth:`BatchEngine.block_components`: 16 data draws on the case study,
#: one on a problem of 192 leaves, 40 alternatives and 6 profiles.
CHUNK_BYTES = 2_200_000


def chunk_draws(n_el: int, m: int, c: int) -> int:
    """Data draws per :meth:`BatchEngine.pref_components` call: as many as
    keep the three points of every pair of every leaf within
    :data:`CHUNK_BYTES`, and at least one."""
    return max(1, CHUNK_BYTES // (3 * 8 * n_el * (2 * m * c + c * c)))


def _rule(rule: str) -> tuple[int, int]:
    try:
        return _RULE_TABLE[rule]
    except KeyError:
        raise ValueError(f"unknown assignment rule {rule!r}") from None


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
        """Check that successive profiles strictly dominate each other on
        every criterion (see :func:`check_profile_column`)."""
        if len(prefs) != self.n_criteria:
            raise InputError(SCHEMA, "profiles and preference specs differ in length")
        for t, spec in enumerate(prefs):
            check_profile_column(tfn_matrix([row[t] for row in self.levels]), spec.direction, t)


def profile_pair_faults(columns: np.ndarray, maximize) -> tuple[np.ndarray, np.ndarray]:
    """Dominance and overlap faults of every adjacent profile pair.

    ``columns`` holds criteria's profiles as (..., k+1, 3) rows of
    (m, alpha, beta), best first, and ``maximize`` their directions: one
    bool, or a bool array over the leading axes.  Modes must be strictly
    ordered in the preference direction, and the supports of adjacent
    profiles may touch but not overlap.  Returns two (..., k) masks: entry
    h is true where profiles h and h+1 break the mode ordering, or where
    their supports overlap.  A mode, support end or difference that
    overflows to an infinity still compares correctly, so it does not warn.
    """
    better, worse = columns[..., :-1, :], columns[..., 1:, :]
    up = np.asarray(maximize)[..., None]
    upper, lower = np.where(up[..., None], better, worse), np.where(up[..., None], worse, better)
    with np.errstate(over="ignore"):
        dominance = np.where(up, better[..., 0] - worse[..., 0], worse[..., 0] - better[..., 0]) <= 0
        overlap = upper[..., 0] - upper[..., 1] < lower[..., 0] + lower[..., 2]
    return dominance, overlap


def profile_envelope(columns: np.ndarray) -> np.ndarray:
    """Support span of each criterion's profiles: ``columns`` as in
    :func:`profile_pair_faults`, (..., k+1, 3); returns (..., 2) pairs of
    the lowest left and the highest right support end, infinite where one
    overflows."""
    with np.errstate(over="ignore"):
        return np.stack([(columns[..., 0] - columns[..., 1]).min(axis=-1),
                         (columns[..., 0] + columns[..., 2]).max(axis=-1)], axis=-1)


def check_profile_column(column: np.ndarray, direction: str, criterion: int | str,
                         at: str | None = None) -> None:
    """Reject one criterion's profiles, (k+1, 3) rows best first, unless
    every adjacent pair is free of :func:`profile_pair_faults`.

    Raises
    ------
    InputError
        ``PROFILE_DOMINANCE`` or ``PROFILE_OVERLAP`` for the first faulty
        pair, naming ``criterion`` (a slot or a label path) and located at
        ``at``.
    """
    dominance, overlap = profile_pair_faults(column, direction == "maximize")
    bad = dominance | overlap
    if not bad.any():
        return
    h = int(bad.argmax())
    if dominance[h]:
        raise InputError(PROFILE_DOMINANCE, f"profile {h + 1} does not dominate profile {h + 2} "
                         f"on criterion {criterion} ({column[h, 0]} vs {column[h + 1, 0]}, "
                         f"{direction})", at)
    raise InputError(PROFILE_OVERLAP, f"supports of profiles {h + 1} and {h + 2} overlap "
                     f"on criterion {criterion}", at)


def _check_vector(tree: CriteriaTree, name: str, values: Sequence) -> None:
    if len(values) != tree.n_elementary:
        raise InputError(
            SCHEMA,
            f"{name} has {len(values)} entries, tree has {tree.n_elementary} "
            "elementary criteria",
        )


def _pair_rows(tree, weights, prefs, a, b) -> np.ndarray:
    """Fuzzy preference of ``a`` over ``b`` under every node, whole tree
    last: (nodes+1, 3) rows of (m, alpha, beta).

    Each leaf's row is (P(d), P(d) - P(d - s_l), P(d + s_r) - P(d)), the
    fuzzy degree of :func:`~smaaflow.preference.fuzzy_preference`, and the
    engine sums the rows up the tree like every other node value.
    """
    _check_vector(tree, "evaluation vector", a)
    _check_vector(tree, "evaluation vector", b)
    _check_vector(tree, "preference list", prefs)
    p0, lo, hi = PreferenceArrays.of(prefs).fuzzy_degrees(tfn_matrix(a), tfn_matrix(b))
    w = np.array([[weights[n.path] for n in tree.nodes]])
    # aggregation reads only the tree, not the reference-set sizes
    return BatchEngine(tree, 1, 1).aggregate(np.stack([p0, p0 - lo, hi - p0]), w)[:, 0]


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
    idx = tree.node_index[tree.node(path).path]
    return TFN(*map(float, _pair_rows(tree, weights, prefs, a, b)[idx]))


def fuzzy_outranking(
    tree: CriteriaTree,
    weights: Mapping[tuple[int, ...], float],
    prefs: Sequence[PreferenceSpec],
    a: Sequence[TFN],
    b: Sequence[TFN],
) -> TFN:
    """Fuzzy aggregated preference of ``a`` over ``b`` across the whole tree."""
    return TFN(*map(float, _pair_rows(tree, weights, prefs, a, b)[-1]))


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


def _single_run(tree, weights, prefs, profiles, x, defuzz) -> tuple[BatchEngine, BatchFlows]:
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
    return engine, engine.flows(engine.node_values(components, w))


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
    _, bf = _single_run(tree, weights, prefs, profiles, x, defuzz)
    alt = FlowTriple(float(bf.alt_plus[0, 0]), float(bf.alt_minus[0, 0]), float(bf.alt_net[0, 0]))
    rows = zip(bf.prof_plus[0, 0], bf.prof_minus[0, 0], bf.prof_net[0, 0])
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


def _assign_one(alt: float, prof: Sequence[float], rule: str, what: str) -> int:
    """Category of one flow between the profile flows under ``rule``.

    Raises
    ------
    InvariantError
        If the profile flows are not ordered the way ``rule`` needs.
    BoundaryViolation
        If the profile flows do not bracket ``alt``.
    """
    prof = np.asarray(prof, dtype=float)
    check_profile_order(prof, rule, what)
    cat, valid = bracket(np.float64(alt), prof, rule)
    if not valid:
        lo, hi = sorted((prof[0], prof[-1]))
        raise BoundaryViolation(f"{what} flow {alt} falls outside the profile span ({lo}, {hi}]")
    return int(cat)


def assign(bundle: FlowBundle, rule: str = "net") -> int:
    """Category of the bundled alternative under one assignment rule.

    Raises
    ------
    BoundaryViolation
        If the alternative's flow falls outside the span of the profile
        flows, i.e. the profiles do not bracket it.
    """
    i = _rule(rule)[0]
    return _assign_one(bundle.alternative[i], [t[i] for t in bundle.profiles], rule, rule)


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
    engine, bf = _single_run(tree, weights, prefs, profiles, x, defuzz)
    node = engine.node_flows(bf, idx)
    return SingleCriterionFlows(
        net=float(node.alt[0, 0]),
        profile_net=tuple(float(v) for v in node.prof[0, 0]),
    )


def single_criterion_assignment(flows: SingleCriterionFlows) -> int:
    """Category suggested by one subtree's net flows."""
    return _assign_one(flows.net, flows.profile_net, "net", "single-criterion net")


# ---------------------------------------------------------------------------
# Batched evaluation
# ---------------------------------------------------------------------------

def tfn_matrix(values: Sequence[TFN]) -> np.ndarray:
    """Stack fuzzy numbers into an (n, 3) array of (m, alpha, beta) rows."""
    return np.array([[v.m, v.alpha, v.beta] for v in values], dtype=float)


class NodeFlows(NamedTuple):
    """Net flows of a group of tree nodes: ``alt`` (nodes, rows, m) for the
    alternatives, ``prof`` (nodes, rows, m, k+1) for their profiles."""

    alt: np.ndarray
    prof: np.ndarray


@dataclass
class BatchFlows:
    """Flow arrays for a block of weight rows.

    The whole tree's flows are (rows, m) for the alternatives and
    (rows, m, k+1) for the profiles.  The net flows are always there; the
    positive and negative ones only where :meth:`BatchEngine.node_values`
    built their table (both with no rule, one under its own rule), and
    None otherwise.  ``nodes`` holds the net flows of
    every real tree node in the engine's three groups (see
    :class:`BatchEngine`): the leaves and the fixed internal nodes carry one
    row per data draw, the varying nodes one row per weight row.  The whole
    tree has the rows of the fixed groups when the root is fixed, else one
    per weight row.
    """

    alt_plus: np.ndarray
    alt_minus: np.ndarray
    alt_net: np.ndarray
    prof_plus: np.ndarray
    prof_minus: np.ndarray
    prof_net: np.ndarray
    nodes: tuple[NodeFlows, NodeFlows, NodeFlows]


class NodeValues(NamedTuple):
    """Aggregated flow columns of a block, as :meth:`BatchEngine.flows` reads them.

    ``nodes`` holds the net flow rows of the engine's three node groups,
    each (group nodes, rows, n_pairs): the leaves, as views of the leaf
    tables, and the fixed internal nodes, with one row per data draw (1
    when the components are shared across the block); then the varying
    nodes, with one row per weight row.  The whole tree has the rows of
    the fixed groups when the root is fixed, else one per weight row.  Its
    positive and negative tables are None unless the rule passed to
    :meth:`BatchEngine.node_values` brackets by them.
    """

    nodes: tuple[np.ndarray, np.ndarray, np.ndarray]
    root_net: np.ndarray  # (rows, n_pairs) net flow rows of the whole tree
    root_plus: np.ndarray | None  # (rows, n_pairs) positive flow rows, or None
    root_minus: np.ndarray | None  # (rows, n_pairs) negative flow rows, or None


def bracket(alt: np.ndarray, prof: np.ndarray, rule: str):
    """Categories (1-based) of flows ``alt`` between the profile flows
    ``prof`` (..., k+1), best profile first, and a validity mask.

    Positive and net flows fall from r_1 to r_{k+1}, so C_h needs
    prof[h-1] >= alt > prof[h]; negative flows rise, so C_h needs
    prof[h-1] < alt <= prof[h].  Either way a flow that ties a profile's
    lands in the upper category.  Invalid entries fall outside the span.
    """
    if _rule(rule)[1] > 0:
        valid = (alt > prof[..., 0]) & (alt <= prof[..., -1])
        return (prof[..., :-1] < alt[..., None]).sum(axis=-1), valid
    valid = (alt <= prof[..., 0]) & (alt > prof[..., -1])
    return 1 + (prof[..., 1:] >= alt[..., None]).sum(axis=-1), valid


def check_profile_order(prof: np.ndarray, rule: str, what: str, axis: int = -1) -> None:
    """Assert the bracketing premise of ``rule``: profile flows, best first
    along ``axis``, step the way :func:`bracket` expects, within
    :data:`ORDERING_TOL`.

    Raises
    ------
    InvariantError
        Naming ``what`` and the worst step against the expected direction.
    """
    step = np.diff(prof, axis=axis)
    rising = _rule(rule)[1] > 0
    worst = -step.min() if rising else step.max()
    if worst > ORDERING_TOL:
        trend = "non-decreasing" if rising else "non-increasing"
        raise InvariantError(f"{what} profile flows are not {trend} (worst step {worst})")


class BatchEngine:
    """Evaluates flows for many weight vectors from per-leaf flow tables.

    A node's value row holds, for every alternative x_i, the net flows of
    the members of its reference set R_i = {x_i, r_1, ..., r_{k+1}}, the
    alternative first.  Aggregation and defuzzification are linear in the
    three components of a fuzzy number, so each leaf contributes one crisp
    flow table per data draw; node rows are weighted sums of their
    children's rows, and the whole tree's positive and negative flows are
    the leaf tables weighted by each leaf's path-product weight.  Only the
    table a rule brackets by is built: none under ``net``, one under
    ``positive`` or ``negative``.  The path products sum to 1, so those
    flows are convex combinations of the leaf tables, and
    :meth:`check_ordering` checks the profile order once per data draw on
    the leaf tables rather than on every weight row's whole-tree flows.

    A node's row depends only on the weights inside its subtree, so the
    engine splits the tree once, from its sibling groups.  A node is
    *fixed* when it is a leaf, or when its child group is deterministic and
    all its children are fixed; the whole tree is fixed when the
    first-level group is deterministic and every first-level node is
    fixed.  Fixed rows are the same in every weight row of a block, so they
    are summed and bracketed once per data draw.  Only the *varying* nodes
    are summed for every weight row, reading their fixed children by
    broadcasting.  The weight rows passed in must therefore agree on the
    weights of every deterministic group, as sampled weights do.
    """

    def __init__(self, tree: CriteriaTree, n_alternatives: int, n_profiles: int):
        self.tree = tree
        self.m = n_alternatives
        self.c = n_profiles
        self.n_nodes = len(tree.nodes)
        self.root = self.n_nodes
        # width of a node's value row; the per-layer trace reads it
        self.n_pairs = self.m * (self.c + 1)
        # per node, then the whole tree at index n_nodes: leaf slot (-1 for
        # an internal node) and children; children come before parents
        self.elem_slot = [tree.elementary_index.get(n.path, -1) for n in tree.nodes] + [-1]
        self.children = [[tree.node_index[c.path] for c in n.children] for n in tree.nodes]
        self.children.append([tree.node_index[n.path] for n in tree.first_level])
        self.order = [*range(self.n_nodes - 1, -1, -1), self.root]
        self.inner = [idx for idx in self.order if self.elem_slot[idx] < 0]
        self.parent = [tree.node_index.get(n.path[:-1], -1) for n in tree.nodes]
        self.leaf_nodes = [tree.node_index[p] for p in tree.elementary_paths]
        deterministic = {tree.node_index.get(g.parent_path, self.root): g.spec.is_deterministic
                         for g in tree.sibling_groups()}
        fixed = {}
        for idx in self.order:
            fixed[idx] = self.elem_slot[idx] >= 0 or (
                deterministic[idx] and all(fixed[k] for k in self.children[idx]))
        self.root_fixed = fixed[self.root]
        # the three node groups, each children first: leaves, fixed internal
        # nodes and varying nodes; the whole tree belongs to none of them
        self.fixed_inner = [idx for idx in self.inner[:-1] if fixed[idx]]
        self.varying = [idx for idx in self.inner[:-1] if not fixed[idx]]
        self.node_groups = tuple(np.array(g, dtype=np.int64)
                                 for g in (self.leaf_nodes, self.fixed_inner, self.varying))
        # node index -> (group, position in the group)
        self.node_slot = {int(idx): (g, pos) for g, ids in enumerate(self.node_groups)
                          for pos, idx in enumerate(ids)}

    # -- per-leaf flow tables ----------------------------------------------

    def pref_components(self, prefs, evals: np.ndarray, profiles: np.ndarray, defuzz: str, *,
                        out: np.ndarray | None = None):
        """Net, positive and negative flow tables of every leaf for one data
        draw, or for a chunk of draws along a leading axis.

        Parameters
        ----------
        prefs :
            A sequence of :class:`PreferenceSpec` or their
            :class:`PreferenceArrays`, one entry per leaf; with a draw axis,
            arrays whose ``q`` and ``p`` are (n_el, draws).
        evals : ([draws,] m, n_el, 3) array
        profiles : ([draws,] c, n_el, 3) array
        out :
            A C-contiguous leaf-major ([draws,] n_el, 3 * n_pairs) array to
            write the tables into, rather than a new one.

        Returns
        -------
        ([draws,] 3 * n_pairs, n_el) array: the net flows of every
        reference set on each leaf alone, laid out like a node's value row,
        then the positive and the negative flows in the same layout.  It is
        the transposed view of the leaf-major array, ``out`` when given.
        """
        if defuzz not in DEFUZZ_METHODS:
            raise ValueError(f"unknown defuzzification method {defuzz!r}")
        if out is not None and not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        prefs = prefs if isinstance(prefs, PreferenceArrays) else PreferenceArrays.of(prefs)
        c, m = self.c, self.m
        draws, n_el = evals.shape[:-3], evals.shape[-2]
        mc = m * c
        # oriented members as (n_el, members, 3[, draws]): the draw axis goes
        # last, so the elementwise work runs along it
        x, r = (np.ascontiguousarray(np.moveaxis(prefs.orient(v), (-2, -3, -1), (0, 1, 2)))
                for v in (evals, profiles))
        # the three points (d, d - s_l, d + s_r) of every pair, leaf-major:
        # P(x_i, r_h), then P(r_h, x_i), then P(r_h, r_l)
        pts = np.empty((n_el, 3, 2 * mc + c * c) + draws)
        x_r = pts[:, :, :mc].reshape((n_el, 3, m, c) + draws)
        r_x = pts[:, :, mc : 2 * mc].reshape((n_el, 3, m, c) + draws)
        r_r = pts[:, :, 2 * mc :].reshape((n_el, 3, c, c) + draws)
        for ab, (a, b) in ((x_r, (x, r)), (r_r, (r, r))):
            d = np.subtract(a[:, :, None, 0], b[:, None, :, 0], out=ab[:, 0])
            np.subtract(d, a[:, :, None, 1] + b[:, None, :, 2], out=ab[:, 1])
            np.add(d, a[:, :, None, 2] + b[:, None, :, 1], out=ab[:, 2])
        # a reverse pair's points are the forward ones negated: (-d, -(d + s_r), -(d - s_l))
        for k, j in ((0, 0), (1, 2), (2, 1)):
            np.negative(x_r[:, j], out=r_x[:, k])
        p0, p_lo, p_hi = prefs.degrees(pts, out=pts).swapaxes(0, 1)
        if defuzz == "centroid":
            pair = p0 + (p_hi + p_lo - 2.0 * p0) / 3.0
        else:  # spread-sum
            pair = p0 + (p_hi - p_lo) / 3.0
        if draws:  # back to draw-major, (draws, n_el, pairs)
            pair = np.ascontiguousarray(np.moveaxis(pair, -1, 0))
        # Every sum runs over a contiguous profile axis, and net flows are
        # summed from pair differences rather than taken as positive minus
        # negative: an alternative equal to a profile ties it exactly, and
        # this rounding decides its category in the reports.
        both = pair[..., : 2 * mc].reshape(draws + (n_el, 2, m, c))
        x_over_r, r_over_x = both[..., 0, :, :], both[..., 1, :, :]
        r_over_r = pair[..., 2 * mc :].reshape(draws + (n_el, c, c))
        diag = np.einsum("...hh->...h", r_over_r)
        row = r_over_r.sum(axis=-1) - diag  # sum over l != h of P(r_h, r_l)
        col = r_over_r.sum(axis=-2) - diag  # sum over l != h of P(r_l, r_h)
        diff = x_over_r - r_over_x
        if out is None:
            out = np.empty(draws + (n_el, 3 * self.n_pairs))
        leaf = out.reshape(draws + (n_el, 3, m, c + 1))  # a view, out being contiguous
        leaf[..., 0, :, 0] = diff.sum(axis=-1)
        leaf[..., 0, :, 1:] = (row - col)[..., None, :] - diff
        leaf[..., 1:, :, 0] = both.sum(axis=-1)
        leaf[..., 1, :, 1:] = row[..., None, :] + r_over_x
        leaf[..., 2, :, 1:] = col[..., None, :] + x_over_r
        leaf /= c
        return np.swapaxes(out, -1, -2)

    def block_components(self, prefs: PreferenceArrays, evals: np.ndarray,
                         profiles: np.ndarray, defuzz: str) -> np.ndarray:
        """:meth:`pref_components` of many data draws, :func:`chunk_draws`
        draws per call, each written into its rows of one leaf-major buffer.

        ``prefs`` carries (n_el, draws) ``q`` and ``p``; ``evals`` and
        ``profiles`` lead with the draw axis.  Returns the (draws,
        3 * n_pairs, n_el) view, the layout :meth:`node_values` reads.
        """
        draws, n_el = evals.shape[0], evals.shape[-2]
        tables = np.empty((draws, n_el, 3 * self.n_pairs))
        step = chunk_draws(n_el, self.m, self.c)
        for j in range(0, draws, step):
            rows = slice(j, j + step)
            self.pref_components(prefs._replace(q=prefs.q[:, rows], p=prefs.p[:, rows]),
                                 evals[rows], profiles[rows], defuzz, out=tables[rows])
        return tables.swapaxes(1, 2)

    # -- node values and flows --------------------------------------------

    @staticmethod
    def _leaf_rows(leaves: np.ndarray) -> np.ndarray:
        """Leaf tables ([batch,] width, n_el) as node rows (n_el, rows, width),
        a view: one row when shared across the batch."""
        return np.moveaxis(leaves[None] if leaves.ndim == 2 else leaves, -1, 0)

    def _sum_children(self, nodes, rows: dict, w: np.ndarray, out):
        """Weighted child sums of ``nodes``, children first, written into the
        matching entries of ``out``.

        ``rows`` maps each node already summed (and every leaf) to its rows
        and gains each new one; a child with fewer rows than ``w``
        broadcasts over the batch.  Returns ``out``.
        """
        for idx, acc in zip(nodes, out):
            kids = self.children[idx]
            np.multiply(w[:, kids[0], None], rows[kids[0]], out=acc)
            for k in kids[1:]:
                acc += w[:, k, None] * rows[k]
            rows[idx] = acc
        return out

    def aggregate(self, leaves: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Weighted sums of leaf rows up the tree, children first, for every
        weight row.

        ``leaves`` is (width, n_el) when shared across the batch or
        (batch, width, n_el) otherwise, one column per leaf; ``w`` is
        (batch, n_nodes) holding every node's weight within its sibling
        group.  Returns (nodes+1, batch, width): every node's row, then the
        whole tree's.  :meth:`node_values` runs the same sums folded.
        """
        values = np.empty((self.n_nodes + 1, w.shape[0], leaves.shape[-2]))
        leaf_rows = self._leaf_rows(leaves)
        values[self.leaf_nodes] = leaf_rows
        rows = dict(zip(self.leaf_nodes, leaf_rows))
        self._sum_children(self.inner, rows, w, [values[idx] for idx in self.inner])
        return values

    def node_values(self, components: np.ndarray, w: np.ndarray,
                    rule: str | None = None) -> NodeValues:
        """Aggregate per-leaf flow tables into per-node flow rows.

        ``components`` is (3 * n_pairs, n_el) when shared across the batch
        or (batch, 3 * n_pairs, n_el) otherwise; ``w`` is (batch, n_nodes)
        holding every node's weight within its sibling group.  Fixed nodes
        are summed once per data draw, with the first weight row (the
        deterministic groups weigh every row alike); varying nodes once per
        weight row.

        Every node's net rows are built.  The whole tree's positive and
        negative tables are built only for the ``rule`` that brackets by
        them: the positive one under ``positive``, the negative one under
        ``negative``, neither under ``net``, and both when ``rule`` is
        None.
        """
        n = self.n_pairs
        leaf_rows = self._leaf_rows(components[..., :n, :])
        draws = leaf_rows.shape[1]
        rows = dict(zip(self.leaf_nodes, leaf_rows))
        fixed = self._sum_children(self.fixed_inner, rows, w[:1],
                                   np.empty((len(self.fixed_inner), draws, n)))
        varying = self._sum_children(self.varying, rows, w,
                                     np.empty((len(self.varying), w.shape[0], n)))
        w_root = w[:1] if self.root_fixed else w
        root_rows = draws if self.root_fixed else w.shape[0]
        net = self._sum_children([self.root], rows, w_root, np.empty((1, root_rows, n)))[0]
        # table blocks [lo, hi) of the leaf tables to weight: 1 is the
        # positive block, 2 the negative one
        lo, hi = (1, 3) if rule is None else ((1, 2), (2, 3), (1, 1))[_rule(rule)[0]]
        if lo == hi:
            return NodeValues((leaf_rows, fixed, varying), net, None, None)
        path = np.empty_like(w_root)
        for idx, parent in enumerate(self.parent):
            path[:, idx] = w_root[:, idx] if parent < 0 else path[:, parent] * w_root[:, idx]
        path = path[:, self.leaf_nodes]
        cols = slice(lo * n, hi * n)
        root = path[:, 0, None] * components[..., cols, 0]
        for slot in range(1, path.shape[1]):
            root += path[:, slot, None] * components[..., cols, slot]
        plus = root[:, :n] if lo == 1 else None
        minus = root[:, -n:] if hi == 3 else None
        return NodeValues((leaf_rows, fixed, varying), net, plus, minus)

    def flows(self, values: NodeValues) -> BatchFlows:
        """Flows for every node and the root from the aggregated rows; the
        whole tree's positive or negative fields are None where
        ``values`` lacks their table."""
        rows = (self.m, self.c + 1)

        def split(table):
            if table is None:
                return None, None
            table = table.reshape((-1,) + rows)
            return table[..., 0], table[..., 1:]

        (alt_plus, prof_plus), (alt_minus, prof_minus), (alt_net, prof_net) = map(
            split, (values.root_plus, values.root_minus, values.root_net))
        groups = (g.reshape(g.shape[:-1] + rows) for g in values.nodes)
        return BatchFlows(
            alt_plus=alt_plus,
            alt_minus=alt_minus,
            alt_net=alt_net,
            prof_plus=prof_plus,
            prof_minus=prof_minus,
            prof_net=prof_net,
            nodes=tuple(NodeFlows(g[..., 0], g[..., 1:]) for g in groups),
        )

    def node_flows(self, batch_flows: BatchFlows, idx: int) -> NodeFlows:
        """Net flows of tree node ``idx``, (rows, m) and (rows, m, k+1)."""
        group, pos = self.node_slot[idx]
        return NodeFlows(*(a[pos] for a in batch_flows.nodes[group]))

    def check_ordering(self, components: np.ndarray) -> None:
        """Assert the bracketing premise on every leaf: net and positive
        profile flows fall from best to worst, negative ones rise.

        ``components`` are leaf tables as :meth:`pref_components` or
        :meth:`block_components` return them, ([draws,] 3 * n_pairs, n_el).
        Every node's net flows are a convex combination of its leaves', and
        so are the whole tree's positive and negative flows, whose
        path-product weights sum to 1: checking the leaf tables covers every
        node under every rule.  The tables are read through strided views,
        never copied.
        """
        tables = components.reshape(
            components.shape[:-2] + (3, self.m, self.c + 1, components.shape[-1]))
        for t, rule in enumerate(("net", "positive", "negative")):
            check_profile_order(tables[..., t, :, 1:, :], rule, rule, axis=-2)

    def assign_overall(self, batch_flows: BatchFlows, rule: str):
        """Categories (rows, m) and validity mask under the requested rule,
        from the whole tree's flows that the rule brackets; the others may
        be None (see :meth:`node_values`)."""
        bf = batch_flows
        flows = ((bf.alt_plus, bf.prof_plus), (bf.alt_minus, bf.prof_minus),
                 (bf.alt_net, bf.prof_net))
        return bracket(*flows[_rule(rule)[0]], rule)

    def assign_nodes(self, batch_flows: BatchFlows):
        """Net-style categories of every real tree node, one (nodes, categories,
        validity) triple per node group: node indices, then two
        (group nodes, rows, m) arrays.  A fixed group's rows are bracketed
        once per data draw, not once per weight row."""
        return [(ids, *bracket(g.alt, g.prof, "net"))
                for ids, g in zip(self.node_groups, batch_flows.nodes)]
