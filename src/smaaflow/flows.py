"""Hierarchical FlowSort: outranking, flows and category assignment.

Alternatives are sorted into ordered categories C_1 (best) through C_k by
comparing each alternative against k+1 limiting profiles r_1 (best) through
r_{k+1}.  Preference degrees on elementary criteria are aggregated bottom-up
through the criteria tree with the node weights, defuzzified at the root
into an outranking degree, and turned into positive, negative and net flows
within the reference set {r_1, ..., r_{k+1}, x}.  Flows of the profiles
bracket the flow of the alternative, which pins down its category.

Flows are linear in the preference degrees, so the positive, negative and
net flows under any node of the tree are weighted sums of its children's,
down to per-leaf unicriterion flows.  :class:`BatchEngine` is the one flow
engine.  It is built for one assignment rule, which fixes once which
per-leaf flow tables it builds and reads: net alone under ``net``, net and
the rule's own table under ``positive`` or ``negative``, all three with no
rule.  It sums the profile-versus-profile pairs once per block of draws,
then builds its tables a chunk of draws per kernel pass, checking the order
of each table's profile flows as it goes.  A pass takes the leaves in shape
order and lays its points out as (point, direction, alternative, profile,
leaf, draw), one scratch per run of a shape, so each shape is one kernel
call whose inner loop runs over leaves and draws; a step shape's pairs read
their two defuzzified degrees from a table of point states
(:func:`_step_table`) built by the same kernel, and the tables go back in
tree order.  One call,
:meth:`BatchEngine.flows`, takes those tables and a batch of weight vectors
to flows: it sums every column children-first in one pass and hands out the
whole tree's tables by name and every node's net ones.
:func:`flow_bundle`, :func:`single_criterion_flows` and their relatives
run the same engine, with all three tables, on a single weight row.  The
pairwise degrees (:func:`subtree_preference`, :func:`outranking_degree`)
come from the same preference kernel and the same children-first
aggregation, applied to one pair's (m, alpha, beta) rows.  One rule table
drives bracketing: :func:`bracket` serves the single-evaluation and the
batch paths alike.  :func:`check_profile_order` checks the profile order
of one evaluation, and :meth:`BatchEngine.pref_components` that of every
leaf table it builds.
"""

from __future__ import annotations

import functools
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
from .preference import SHAPES, STEPS, PreferenceArrays, PreferenceSpec

#: Assignment rules: the flow each one brackets, as its index in
#: :class:`FlowTriple`, and the sign of that flow's step from one profile to
#: the next (negative flows rise from r_1 to r_{k+1}, the others fall).
_RULE_TABLE = {"positive": (0, -1), "negative": (1, 1), "net": (2, -1)}
RULES = tuple(_RULE_TABLE)

#: The leaf tables a :class:`BatchEngine` builds for each rule, in the
#: kernel's order, each named by the rule its profile flows step for: net
#: always, and the table a rule brackets the whole tree by; None builds all
#: three.
_RULE_TABLES = {None: ("net", "positive", "negative"), "net": ("net",),
                "positive": ("net", "positive"), "negative": ("net", "negative")}

#: Slack allowed when asserting that profile flows are ordered.
ORDERING_TOL = 1e-9

#: Bytes of pair points per kernel pass of :meth:`BatchEngine.pref_components`:
#: 16 data draws on the case study, one on a problem of 192 leaves, 40
#: alternatives and 6 profiles.  :func:`chunk_draws` charges each draw the
#: points of its 2 m c alternative-profile pairs and of its c * c profile
#: pairs, but a pass holds only the former: the profile pairs are summed once
#: per block, so a pass's points fill 2 m c / (2 m c + c * c) of the budget,
#: 76% on the case study.
CHUNK_BYTES = 2_200_000


def chunk_draws(n_el: int, m: int, c: int) -> int:
    """Data draws per kernel pass of :meth:`BatchEngine.pref_components`: as
    many as keep the three points of every pair of every leaf within
    :data:`CHUNK_BYTES`, and at least one.  It counts the 2 m c pairs of
    alternatives and profiles, both ways, and the c * c pairs of profiles;
    the pass holds the points of the first only (see :data:`CHUNK_BYTES`)."""
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
    return engine, engine.flows(components, w)


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
    tables = [bf.root[name] for name in RULES]  # in FlowTriple order
    rows = zip(*(t.prof[0, 0] for t in tables))
    return FlowBundle(
        alternative=FlowTriple(*(float(t.alt[0, 0]) for t in tables)),
        profiles=tuple(FlowTriple(*map(float, row)) for row in rows),
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
    """Flows of one table: ``alt`` (..., rows, m) for the alternatives,
    ``prof`` (..., rows, m, k+1) for their profiles, with a leading node
    axis for a group of tree nodes."""

    alt: np.ndarray
    prof: np.ndarray


@dataclass
class BatchFlows:
    """Flow arrays for a block of weight rows, from :meth:`BatchEngine.flows`.

    ``root`` maps the name of each table the engine builds to the whole
    tree's flows of that kind, (rows, m) for the alternatives and
    (rows, m, k+1) for the profiles.  ``nodes`` holds the net flows of
    every real tree node in the engine's three groups (see
    :class:`BatchEngine`): the leaves and the fixed internal nodes carry one
    row per data draw, the varying nodes one row per weight row.  The whole
    tree has the rows of the fixed groups when the root is fixed, else one
    per weight row.
    """

    root: dict[str, NodeFlows]
    nodes: tuple[NodeFlows, NodeFlows, NodeFlows]


def bracket(alt: np.ndarray, prof: np.ndarray, rule: str):
    """Categories (1-based, intp) of flows ``alt`` between the profile
    flows ``prof`` (..., k+1), best profile first, and a validity mask.

    Positive and net flows fall from r_1 to r_{k+1}, so C_h needs
    prof[h-1] >= alt > prof[h]; negative flows rise, so C_h needs
    prof[h-1] < alt <= prof[h].  Either way a flow that ties a profile's
    lands in the upper category.  Invalid entries fall outside the span.
    The category counts the k profile comparisons one profile column at a
    time, so no (..., k) block of comparisons is built.
    """
    # the category and comparison arrays take the flows' memory order
    # (draw-major for leaf rows), so each pass reads its inputs in step
    cols = np.moveaxis(prof, -1, 0)
    if _rule(rule)[1] > 0:
        valid = (alt > cols[0]) & (alt <= cols[-1])
        cat, compare, steps = np.zeros_like(valid, np.intp), np.less, cols[:-1]
    else:
        valid = (alt <= cols[0]) & (alt > cols[-1])
        cat, compare, steps = np.ones_like(valid, np.intp), np.greater_equal, cols[1:]
    hit = np.empty_like(valid)
    for col in steps:
        cat += compare(col, alt, out=hit)
    return cat, valid


def _worst_step(prof: np.ndarray, rule: str, axis: int = -1):
    """Largest step of profile flows ``prof``, best first along ``axis``,
    against the direction :func:`bracket` expects under ``rule``; nan if a
    flow is nan."""
    step = np.diff(prof, axis=axis)
    return -step.min() if _rule(rule)[1] > 0 else step.max()


def _check_steps(steps, what: str | None = None) -> None:
    """Raise :class:`InvariantError` for the first (worst step, rule) pair of
    ``steps`` whose worst step (see :func:`_worst_step`) exceeds
    :data:`ORDERING_TOL`, naming ``what``, or else that pair's rule."""
    for worst, rule in steps:
        if worst > ORDERING_TOL:
            trend = "non-decreasing" if _rule(rule)[1] > 0 else "non-increasing"
            raise InvariantError(f"{what or rule} profile flows are not {trend} "
                                 f"(worst step {worst})")


def check_profile_order(prof: np.ndarray, rule: str, what: str) -> None:
    """Assert the bracketing premise of ``rule``: profile flows, best first
    along the last axis, step the way :func:`bracket` expects, within
    :data:`ORDERING_TOL`.

    Raises
    ------
    InvariantError
        Naming ``what`` and the worst step against the expected direction.
    """
    _check_steps([(_worst_step(prof, rule), rule)], what)


def _points(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Points (d, d - s_l, d + s_r) of oriented members (3, A, n, draws)
    over (3, B, n, draws), written into ``out``, (3, A, B, n, draws)."""
    d = np.subtract(a[0, :, None], b[0, None], out=out[0])
    np.subtract(d, np.add(a[1, :, None], b[2, None], out=out[1]), out=out[1])
    np.add(d, np.add(a[2, :, None], b[1, None], out=out[2]), out=out[2])
    return out


def _defuzzed(degrees: np.ndarray, defuzz: str) -> np.ndarray:
    """Pair degrees from (3, ...) P(d), P(d - s_l), P(d + s_r), in place over the last:
    ``(p_hi + p_lo) - 2.0*p0`` (centroid) or ``p_hi - p_lo``, then ``/ 3.0``, then ``+ p0``."""
    p0, p_lo, p_hi = degrees
    if defuzz == "centroid":
        np.add(p_hi, p_lo, out=p_hi)
        p_hi -= np.multiply(p0, 2.0, out=p_lo)
    else:  # spread-sum
        p_hi -= p_lo
    p_hi /= 3.0
    p_hi += p0
    return p_hi


def _kernel_pairs(prefs: PreferenceArrays, pts: np.ndarray, defuzz: str) -> np.ndarray:
    """Defuzzed degrees of pairs and of their mirror pairs through the
    elementwise kernel.  ``pts`` is (3, 2, ..., criteria[, draws]) with the
    pairs' points in ``[:, 0]``; the mirrors' points go to ``[:, 1]``, and
    the degrees, (2, ...), to ``pts[2]``, which is returned."""
    # the points of P(r, x) negate those of P(x, r): (-d, -(d + s_r), -(d - s_l))
    for k, j in ((0, 0), (1, 2), (2, 1)):
        np.negative(pts[j, 0], out=pts[k, 1])
    return _defuzzed(prefs.degrees(pts, out=pts), defuzz)


@functools.cache
def _step_table(shape: str, defuzz: str) -> np.ndarray:
    """The defuzzed degrees of a pair and of its mirror pair under step shape
    ``shape``, (2, n, n, n), for each triple of states of the pair's points
    P(d), P(d - s_l), P(d + s_r), a state being a point's step count (see
    :meth:`PreferenceArrays.add_step_counts`) plus n // 2:
    :func:`_kernel_pairs` run on one point per state, so the floats are the
    kernel's.  Built on first use, in the process that reads it, and
    read-only."""
    prefs = PreferenceArrays(np.array([SHAPES.index(shape)]), np.array([1.0]),
                             np.array([2.0]), np.zeros(1), np.ones(1, dtype=bool))
    # one point below, between and above the steps at +-1 and +-2: the first
    # candidate of each count, as counts never fall along the candidates
    candidates = np.array([[-3.0], [-1.5], [0.0], [1.5], [3.0]])
    counts = prefs.add_step_counts(candidates, np.zeros(candidates.shape, dtype=np.intp))[:, 0]
    points = candidates[np.flatnonzero(np.diff(counts, prepend=counts[0] - 1))]
    pts = np.empty((3, 2) + (len(points),) * 3 + (1,))
    for k in range(3):  # point k's state on axis k
        pts[k, 0] = points.reshape((-1,) + (1,) * (2 - k) + (1,))
    table = _kernel_pairs(prefs, pts, defuzz)[..., 0]
    table.flags.writeable = False
    return table


def _pair_degrees(prefs: PreferenceArrays, x: np.ndarray, r: np.ndarray, defuzz: str,
                  out: np.ndarray) -> np.ndarray:
    """Defuzzed degrees of every pair of oriented members ``x`` (3, A,
    criteria, draws) over ``r`` (3, B, criteria, draws), and of its mirror
    pair, written into ``out``, (2, A, B, criteria, draws), and returned.

    Each run of one shape builds its points (:func:`_points`) in a scratch
    of its own, laid out (point, direction, A, B, run criteria, draws), so
    every elementwise step of the run loops over one contiguous block.  A
    run of a step shape (see :data:`~smaaflow.preference.STEPS`) sorts its
    pairs' three points into states and reads both degrees from its
    :func:`_step_table`, without the mirrors' points; any other runs
    through :func:`_kernel_pairs`.
    """
    for lo, hi in prefs.runs():
        part, run = prefs.select(slice(lo, hi)), (Ellipsis, slice(lo, hi), slice(None))
        name = SHAPES[prefs.codes[lo]]
        size = (3,) + out.shape[1:3] + part.q.shape  # the run's points, (3, A, B, criteria, draws)
        if name not in STEPS:
            pts = np.empty(size[:1] + (2,) + size[1:])
            _points(x[run], r[run], pts[:, 0])
            out[run] = _kernel_pairs(part, pts, defuzz)
            continue
        table = _step_table(name, defuzz)
        n = table.shape[-1]
        # the table's flat index (s0 * n + s_lo) * n + s_hi of the states s,
        # each its point's step count plus n // 2
        code = np.zeros(size[1:], dtype=np.intp)
        for z in _points(x[run], r[run], np.empty(size)):
            code *= n
            part.add_step_counts(z, code)
        code += (n * n + n + 1) * (n // 2)
        for degrees, into in zip(table.reshape(2, -1), out[run]):
            np.take(degrees, code, out=into)
    return out


def _sum_profiles(a: np.ndarray, axis: int, pairwise: bool = True) -> np.ndarray:
    """Sum of ``a`` over its profile ``axis``, as a new array, in numpy's order
    for a contiguous (``pairwise``) or a strided axis.  From 8 values up numpy sums
    a contiguous axis pairwise, so that sum is ``np.sum`` over a copy with the
    profile axis last; otherwise numpy adds one by one from 0.0, as the loop does,
    into a contiguous array (faster than into a strided view)."""
    if pairwise and a.shape[axis] >= 8:
        return np.ascontiguousarray(np.moveaxis(a, axis, -1)).sum(axis=-1)
    a = np.moveaxis(a, axis, 0)
    r = a[0] + 0.0  # 0.0 + -0.0 is 0.0, as from numpy's start at 0.0
    for i in range(1, len(a)):
        r += a[i]
    return r


def _profile_pair_sums(prefs: PreferenceArrays, r: np.ndarray, defuzz: str):
    """Sums over l != h of P(r_h, r_l) and of P(r_l, r_h), (c, n, draws)
    each, from oriented profiles (3, c, n, draws) and their ``prefs``."""
    c = r.shape[1]
    pts = _points(r, r, np.empty((3, c, c) + r.shape[2:]))
    r_over_r = _defuzzed(prefs.degrees(pts, out=pts), defuzz)
    diag = r_over_r[np.arange(c), np.arange(c)]
    return (_sum_profiles(r_over_r, axis=1) - diag,
            _sum_profiles(r_over_r, axis=0, pairwise=False) - diag)


def _block_pair_sums(prefs: PreferenceArrays, profiles: np.ndarray, defuzz: str,
                     leaves: np.ndarray):
    """:func:`_profile_pair_sums` of every leaf for a block of draws, from
    ``prefs`` with (n_el, draws) ``q`` and ``p`` and (draws, c, n_el, 3)
    ``profiles``, the leaves taken in the order ``leaves``.

    Returns ``(fixed, once, vary, each)``: the positions in ``leaves`` of
    the leaves whose profiles and thresholds hold the same bits in every
    draw and their (2, c, leaves, 1) sums, from the first draw; then the
    positions of the other leaves and their (2, c, leaves, draws) sums, from
    one call per window of as many draws as keep the points of their
    profile pairs within :data:`CHUNK_BYTES`.  The sums are elementwise
    along the draw axis, so their bits do not depend on the window.
    """
    draws, c, n_el = profiles.shape[:3]
    bits = profiles.view(np.int64)
    same = (bits == bits[:1]).reshape(draws, -1).all(axis=0)  # over the draws: a contiguous pass
    fixed = same.reshape(c, n_el, 3).all(axis=(0, 2))
    for v in (prefs.q, prefs.p):  # (n_el, draws)
        bits = v.view(np.int64)
        fixed &= (bits == bits[:, :1]).all(axis=1)

    def pair_sums(positions, rows):
        picked = leaves[positions]
        part = prefs._replace(q=prefs.q[:, rows], p=prefs.p[:, rows]).select(picked)
        r = part.orient(profiles[rows][:, :, picked]).transpose(3, 1, 2, 0)
        return _profile_pair_sums(part, r, defuzz)

    fixed, vary = np.flatnonzero(fixed[leaves]), np.flatnonzero(~fixed[leaves])
    each = np.empty((2, c, len(vary), draws))
    window = max(1, CHUNK_BYTES // (3 * 8 * c * c * max(1, len(vary))))
    once = np.array(pair_sums(fixed, slice(0, 1)))
    for j in range(0, draws, window):
        rows = slice(j, j + window)
        each[..., rows] = pair_sums(vary, rows)
    return fixed, once, vary, each


class BatchEngine:
    """Evaluates flows for many weight vectors from per-leaf flow tables.

    A node's value row holds, for every alternative x_i, the net flows of
    the members of its reference set R_i = {x_i, r_1, ..., r_{k+1}}, the
    alternative first.  Aggregation and defuzzification are linear in the
    three components of a fuzzy number, so each leaf contributes one crisp
    flow table per data draw, and node rows are weighted sums of their
    children's rows.  The engine is built for one assignment ``rule``,
    which fixes its ``tables``: the leaf tables it builds and reads, in
    kernel order.  Net is always one, and the table a rule brackets the
    whole tree by is the other: none under ``net``, the positive or the
    negative one under ``positive`` or ``negative``, and both when ``rule``
    is None.  :meth:`flows` sums every table up the tree the same way and
    hands out the whole tree's flows by table name.  Each group's weights
    sum to 1, so every node's flows are convex combinations of the leaf
    tables, and the profile order is checked once per data draw on the
    leaf tables (see :meth:`check_ordering`), as :meth:`pref_components`
    builds them, rather than on every weight row's flows: the net tables
    cover every node's bracket, and the rule's own table the whole tree's.

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

    Raises
    ------
    ValueError
        For an unknown ``rule``.
    """

    def __init__(self, tree: CriteriaTree, n_alternatives: int, n_profiles: int,
                 rule: str | None = None):
        if rule is not None:
            _rule(rule)
        self.rule = rule
        self.tables = _RULE_TABLES[rule]
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

    def pref_components(self, prefs, evals: np.ndarray, profiles: np.ndarray,
                        defuzz: str) -> np.ndarray:
        """The engine's flow tables of every leaf, for one data draw or for
        a block of draws along a leading axis.

        The leaves are taken in a stable order by shape, from the shape
        codes of ``prefs``.  The profile-versus-profile sums of the block
        come first, from :func:`_block_pair_sums`.  Then the draws go
        :func:`chunk_draws` at a time through one kernel pass,
        :meth:`_chunk_tables`, which builds a chunk's tables with leaves and
        draws innermost.  Each pass's tables are copied back in tree order,
        their worst steps taken, and the chunk dropped before the next pass.

        Parameters
        ----------
        prefs :
            A sequence of :class:`PreferenceSpec` or their
            :class:`PreferenceArrays`, one entry per leaf; with a draw axis,
            arrays whose ``q`` and ``p`` are (n_el, draws).
        evals : ([draws,] m, n_el, 3) array
        profiles : ([draws,] c, n_el, 3) array

        Returns
        -------
        ([draws,] len(tables) * n_pairs, n_el) array, the layout
        :meth:`flows` reads: for each of the engine's ``tables`` in
        turn, the flows of that kind of every reference set on each leaf
        alone, laid out like a node's value row, as a view of a leaf-major
        buffer.

        Raises
        ------
        InvariantError
            As :meth:`check_ordering` would on the returned tables: each
            chunk's worst steps are taken, and the largest are checked at
            the end.
        """
        if defuzz not in DEFUZZ_METHODS:
            raise ValueError(f"unknown defuzzification method {defuzz!r}")
        prefs = prefs if isinstance(prefs, PreferenceArrays) else PreferenceArrays.of(prefs)
        one = evals.ndim == 3
        if one:  # a draw axis of one
            prefs = prefs._replace(q=prefs.q[:, None], p=prefs.p[:, None])
            evals, profiles = evals[None], profiles[None]
        draws, n_el = evals.shape[0], evals.shape[-2]
        # a stable argsort by shape; Python's, as numpy's stable sort would
        # page its own code into every worker
        leaves = np.array(sorted(range(n_el), key=prefs.codes.__getitem__))
        tables = np.empty((draws, n_el, len(self.tables) * self.n_pairs))
        sums = _block_pair_sums(prefs, profiles, defuzz, leaves)
        worst = np.full(len(self.tables), -np.inf)
        step = chunk_draws(n_el, self.m, self.c)
        for j in range(0, draws, step):
            rows = slice(j, j + step)
            table = self._chunk_tables(prefs, evals, profiles, defuzz, sums, rows, leaves)
            tables[rows][:, leaves] = table.transpose(2, 1, 0)
            np.maximum(worst, self._worst_steps(table.reshape(len(table), -1)), out=worst)
            del table  # free the scratch before the next pass builds its own
        _check_steps(zip(worst, self.tables))
        tables = tables.swapaxes(1, 2)
        return tables[0] if one else tables

    def _chunk_tables(self, prefs: PreferenceArrays, evals: np.ndarray, profiles: np.ndarray,
                      defuzz: str, sums, rows: slice, leaves: np.ndarray) -> np.ndarray:
        """One unchecked kernel pass of :meth:`pref_components` over the
        draws ``rows`` of a block, its inputs as there with (n_el, draws)
        ``q`` and ``p``, and its leaves in the order ``leaves``.

        ``sums`` is the block's :func:`_block_pair_sums` in that order.  The
        pass lays its points out as (point, direction, alternative, profile,
        leaf, draw), one scratch per run of a shape (:func:`_pair_degrees`),
        so every elementwise step runs an inner loop over leaves and draws.
        Returns the engine's tables, in ``tables`` order, as a
        new (len(tables) * n_pairs, leaves, draws) array; nothing its
        caller owns is written.
        """
        c, m, n = self.c, self.m, self.n_pairs
        prefs = prefs._replace(q=prefs.q[:, rows], p=prefs.p[:, rows])
        # oriented members as (3, members, leaves, draws)
        x, r = (np.take(prefs.orient(v[rows]).transpose(3, 1, 2, 0), leaves, axis=2)
                for v in (evals, profiles))
        lay = x.shape[2:]  # (leaves, draws)
        x_over_r, r_over_x = _pair_degrees(prefs.select(leaves), x, r, defuzz,
                                           np.empty((2, m, c) + lay))
        fixed, once, vary, each = sums
        row, col = np.empty((2, c) + lay)
        row[:, fixed], col[:, fixed] = once
        row[:, vary], col[:, vary] = each[..., rows]
        table = np.empty((len(self.tables), m, c + 1) + lay)
        net = table[0]
        # Net flows are summed from pair differences rather than taken as
        # positive minus negative: an alternative equal to a profile ties it
        # exactly, and this rounding decides its category in the reports.
        diff = np.subtract(x_over_r, r_over_x, out=net[:, 1:])
        net[:, 0] = _sum_profiles(diff, axis=1)
        np.subtract(row - col, diff, out=diff)
        # the positive flow of x sums P(x, r_h) over the profiles, and that
        # of r_h adds P(r_h, x) to its profile sum; the negative mirrors it
        sides = {"positive": (x_over_r, row, r_over_x), "negative": (r_over_x, col, x_over_r)}
        for name, block in zip(self.tables[1:], table[1:]):
            alt, prof_sums, prof = sides[name]
            block[:, 0] = _sum_profiles(alt, axis=1)
            np.add(prof_sums, prof, out=block[:, 1:])
        table /= c
        return table.reshape((len(self.tables) * n,) + lay)

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

    def node_values(self, components: np.ndarray, w: np.ndarray):
        """Per-node rows of the leaf tables ``components``, summed
        children-first for the weight rows ``w``.

        ``components`` is (tables * n_pairs, n_el) when shared across the
        batch or (batch, tables * n_pairs, n_el) otherwise, as
        :meth:`pref_components` builds them; ``w`` is (batch, n_nodes),
        every node's weight within its sibling group.  Fixed nodes are
        summed once per data draw with the first weight row (the
        deterministic groups weigh every row alike), varying nodes once per
        weight row, and every column on its own, so a table's floats do not
        depend on the others.  Returns the full-width rows of the three
        node groups, ``(leaves, fixed, varying)``, each (group nodes, rows,
        tables * n_pairs) with the leaves as views of the tables, and the
        whole tree's (rows, tables * n_pairs); rows as in :class:`BatchFlows`.

        Raises
        ------
        ValueError
            If ``components`` does not hold the engine's tables.
        """
        self._check_layout(components)
        leaf_rows = self._leaf_rows(components)
        draws, width = leaf_rows.shape[1:]
        rows = dict(zip(self.leaf_nodes, leaf_rows))
        fixed = self._sum_children(self.fixed_inner, rows, w[:1],
                                   np.empty((len(self.fixed_inner), draws, width)))
        varying = self._sum_children(self.varying, rows, w,
                                     np.empty((len(self.varying), w.shape[0], width)))
        w_root = w[:1] if self.root_fixed else w
        root_rows = draws if self.root_fixed else w.shape[0]
        root = self._sum_children([self.root], rows, w_root, np.empty((1, root_rows, width)))[0]
        return (leaf_rows, fixed, varying), root

    def flows(self, components: np.ndarray, w: np.ndarray) -> BatchFlows:
        """Flows of the leaf tables ``components`` under the weight rows
        ``w``, both as :meth:`node_values` takes them: every node's net
        flows, and the whole tree's of each table by name.  Raises as
        :meth:`node_values` does."""
        nodes, root = self.node_values(components, w)
        n, rows = self.n_pairs, (self.m, self.c + 1)

        def split(table):
            table = table.reshape(table.shape[:-1] + rows)
            return NodeFlows(table[..., 0], table[..., 1:])

        return BatchFlows(root={name: split(root[:, t * n:(t + 1) * n])
                                for t, name in enumerate(self.tables)},
                          nodes=tuple(split(g[..., :n]) for g in nodes))

    def node_flows(self, batch_flows: BatchFlows, idx: int) -> NodeFlows:
        """Net flows of tree node ``idx``, (rows, m) and (rows, m, k+1)."""
        group, pos = self.node_slot[idx]
        return NodeFlows(*(a[pos] for a in batch_flows.nodes[group]))

    def _check_layout(self, components: np.ndarray) -> None:
        """Raise ``ValueError`` unless ``components``, ([batch,] rows, n_el),
        holds as many rows as the engine's tables."""
        if components.shape[-2] != len(self.tables) * self.n_pairs:
            raise ValueError(f"leaf tables of {components.shape[-2]} rows are not the "
                             f"{len(self.tables)} of {self.n_pairs} that rule {self.rule!r} "
                             "reads")

    def _worst_steps(self, tables: np.ndarray) -> list:
        """Worst step of the profile flows in each of the engine's tables in
        ``tables``, (..., len(tables) * n_pairs, X) with any last axis X,
        against the direction that table's rule expects."""
        split = tables.reshape(tables.shape[:-2] + (len(self.tables), self.m, self.c + 1,
                                                    tables.shape[-1]))
        return [_worst_step(split[..., t, :, 1:, :], rule, axis=-2)
                for t, rule in enumerate(self.tables)]

    def check_ordering(self, components: np.ndarray) -> None:
        """Assert the bracketing premise on every leaf: net and positive
        profile flows fall from best to worst, negative ones rise.

        ``components`` are the engine's leaf tables, as
        :meth:`pref_components` returns them, ([draws,] tables * n_pairs,
        n_el).  A table's worst step is its profile flows' largest step
        against that direction, and the first table whose worst step
        exceeds :data:`ORDERING_TOL` raises, net before positive before
        negative.  :meth:`pref_components` runs the same check chunk by
        chunk.  Each sibling group's weights sum to 1, so level by level
        every node's net flows, and the whole tree's positive and negative
        flows, are convex combinations of the leaf tables: the net tables
        cover every node's bracket, and the rule's own table the whole
        tree's.  The tables are read through strided views, never copied.

        Raises
        ------
        ValueError
            If ``components`` does not hold the engine's tables.
        InvariantError
            For the first unordered table.
        """
        self._check_layout(components)
        _check_steps(zip(self._worst_steps(components), self.tables))

    def assign_overall(self, batch_flows: BatchFlows, rule: str):
        """Categories (rows, m) and validity mask under ``rule``, from the
        whole tree's flows of the table that the rule brackets.

        Raises
        ------
        ValueError
            For an unknown rule, or one whose table the engine does not
            build.
        """
        _rule(rule)
        if rule not in batch_flows.root:
            raise ValueError(f"no whole-tree {rule} flows: an engine for rule {self.rule!r} "
                             f"builds only {', '.join(self.tables)}")
        return bracket(*batch_flows.root[rule], rule)

    def assign_nodes(self, batch_flows: BatchFlows):
        """Net-style categories of every real tree node, one (nodes, categories,
        validity) triple per node group: node indices, then two
        (group nodes, rows, m) arrays.  A fixed group's rows are bracketed
        once per data draw, not once per weight row."""
        return [(ids, *bracket(g.alt, g.prof, "net"))
                for ids, g in zip(self.node_groups, batch_flows.nodes)]
