"""Stochastic acceptability analysis over the hierarchical sorting engine.

Imprecise inputs (weights known only by rank or interval, evaluations known
as distributions) are handled by Monte Carlo simulation: each iteration
draws one concrete instantiation, runs the sorting engine and tallies the
resulting categories.  Dividing the tallies by the iteration count gives
category acceptability indices, overall and per tree node.

Reproducibility
---------------
Iterations run in blocks of :data:`BLOCK`.  Every block derives its own
random substream from the root seed and the block index, and work is split
over processes only at block boundaries, so results depend only on
(problem, seed, iterations) and never on how iterations are distributed
over processes.  Workers get the built runtime from the pool at start-up,
so no start method is assumed.  Within a block the sampling order is fixed,
and each step draws for the whole block at once: the stochastic profile
columns in tree order, each best level first, the thresholds of each
stochastic criterion in tree order, q before p, each stochastic evaluation
(alternative by alternative, criterion by criterion), then the weight
vectors of each sibling group in tree order.  The thresholds are a
two-row table, a q row over a p row, drawn by the same column sampler as
the profile columns.  Every stochastic profile level, threshold and
evaluation is drawn by one sampler over a table of cells, whose draws do
not depend on how the cells are grouped into calls.  The engine then takes
a block's data a window of draws at a time, which changes no count.
Static data draws nothing: a run folds, brackets and counts its fixed nodes
once, and each block adds those counts once per weight row and takes its
varying nodes and whole tree a window of weight rows at a time, which
changes no count either.
Likewise the weights take one ``random`` call per missing or ordinal
sibling group, stacked by kind, ranks and size and sorted one stack at a
time, which draws the same floats as one sampler call per group; an
interval group is drawn by rejection and a deterministic one draws nothing.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    SAMPLING,
    THRESHOLD,
    BoundaryViolation,
    InputError,
    SamplingError,
)
from .flows import RULES, BatchEngine, profile_envelope, profile_pair_faults
from .fuzzy import DEFUZZ_METHODS, TFN
from .hierarchy import WeightSpec
from .preference import ORDERED_PAIRS, PreferenceArrays, PreferenceSpec

if TYPE_CHECKING:  # pragma: no cover
    from .model_io import Problem

#: Iterations per random substream; the unit of work split and weight draws.
BLOCK = 256

#: Cap on rejection-sampling candidate draws.
MAX_ATTEMPTS = 1_000_000

#: Cap on retries when drawing a single scalar value into bounds.
VALUE_ATTEMPTS = 10_000

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class StochasticValue:
    """One input quantity, deterministic or distributional.

    ``crisp``, ``fuzzy`` and ``linguistic`` values are deterministic (a
    linguistic term is resolved to its fuzzy number when the problem is
    parsed).  ``interval`` draws uniformly from [lo, hi] and ``normal``
    draws from N(mean, sd), optionally truncated to [lo, hi].
    """

    kind: str
    value: float = 0.0
    tfn: TFN | None = None
    term: str | None = None
    lo: float = 0.0
    hi: float = 0.0
    mean: float = 0.0
    sd: float = 0.0

    @classmethod
    def crisp(cls, value: float) -> "StochasticValue":
        return cls("crisp", value=float(value))

    @classmethod
    def fuzzy(cls, tfn: TFN) -> "StochasticValue":
        return cls("fuzzy", tfn=tfn)

    @classmethod
    def linguistic(cls, term: str, tfn: TFN) -> "StochasticValue":
        return cls("linguistic", term=term, tfn=tfn)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "StochasticValue":
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        # numpy draws uniformly only where the width is a finite float
        if not math.isfinite(float(hi) - float(lo)):
            raise ValueError(f"interval [{lo}, {hi}] has no finite width")
        return cls("interval", lo=float(lo), hi=float(hi))

    @classmethod
    def normal(cls, mean: float, sd: float, lo: float = -np.inf, hi: float = np.inf) -> "StochasticValue":
        if sd <= 0:
            raise ValueError(f"normal spread must be positive, got {sd}")
        # a continuous draw never lands on a single point, so [lo, lo] is empty too
        if not lo < hi:
            raise ValueError(f"empty truncation [{lo}, {hi}]")
        if not (math.isfinite(mean) and math.isfinite(sd)):
            raise ValueError(f"normal mean and spread must be finite, got {mean} and {sd}")
        return cls("normal", mean=float(mean), sd=float(sd), lo=float(lo), hi=float(hi))

    @property
    def is_deterministic(self) -> bool:
        return self.kind in ("crisp", "fuzzy", "linguistic")

    def resolved(self) -> TFN:
        """The fuzzy number of a deterministic value."""
        if self.kind == "crisp":
            return TFN(self.value)
        if self.kind in ("fuzzy", "linguistic"):
            return self.tfn
        raise InputError(SAMPLING, f"{self.kind} value has no deterministic resolution")


@dataclass(frozen=True)
class PreferenceModel:
    """Preference shape of one elementary criterion with possibly imprecise
    thresholds.  ``q`` and ``p`` default to crisp zero; ``s`` stays crisp."""

    shape: str = "usual"
    direction: str = "maximize"
    q: StochasticValue = StochasticValue.crisp(0.0)
    p: StochasticValue = StochasticValue.crisp(0.0)
    s: float = 0.0

    @property
    def is_deterministic(self) -> bool:
        return self.q.is_deterministic and self.p.is_deterministic

    def resolve_deterministic(self) -> PreferenceSpec:
        return PreferenceSpec(shape=self.shape, q=self.q.resolved().m, p=self.p.resolved().m,
                              s=self.s, direction=self.direction)


def iteration_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for block ``index`` of :data:`BLOCK` iterations,
    derived from the root seed, any integer, masked to 64 bits."""
    ss = np.random.SeedSequence(entropy=operator.index(seed) & _MASK64, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------------
# Weight samplers
# ---------------------------------------------------------------------------

def _simplex(u: np.ndarray) -> np.ndarray:
    """Points (..., n) of the standard simplex from uniforms ``u``
    (..., n - 1), sorted in place: the gaps between 0, the sorted draws
    and 1, which spread uniformly over {w >= 0, sum w = 1}."""
    u.sort(axis=-1)
    return np.diff(u, axis=-1, prepend=0.0, append=1.0)


def sample_weights_missing(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Uniform weights on the standard simplex.

    Sorts n-1 uniform draws and takes consecutive gaps, which distributes
    the weight vector uniformly over {w >= 0, sum w = 1}.  With ``size``
    the result is a (size, n) matrix of independent draws.
    """
    if n < 1:
        raise ValueError("need at least one weight")
    return _simplex(rng.random((n - 1,) if size is None else (size, n - 1)))


def _rank_plan(ranks: Sequence[int | None]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The ranked members of an ordinal group and, most important rank
    first, their positions among them per rank (see :func:`_rank_order`)."""
    ranks = list(ranks)
    if any(r is not None and (r != int(r) or r < 1) for r in ranks):
        raise ValueError(f"ranks must be integers >= 1 or None, got {ranks}")
    ranked = np.array([i for i, r in enumerate(ranks) if r is not None], dtype=np.int64)
    by_rank: dict[int, list[int]] = {}
    for i, r in enumerate(ranks[j] for j in ranked):
        by_rank.setdefault(r, []).append(i)
    return ranked, [np.array(by_rank[r], dtype=np.int64) for r in sorted(by_rank)]


def _rank_order(v: np.ndarray, ranked: np.ndarray, groups: list[np.ndarray]) -> np.ndarray:
    """Simplex points ``v`` (..., n) with the values of the ``ranked``
    members handed back to them in decreasing order by rank, in place.

    A rank of g members (``groups``, see :func:`_rank_plan`) takes the next
    g sorted values; ties all receive their arithmetic mean, so equally
    ranked criteria get exactly equal weights.
    """
    desc = np.flip(np.sort(v[..., ranked], axis=-1), axis=-1)
    out = np.empty_like(desc)
    pos = 0
    for members in groups:
        g = len(members)
        out[..., members] = desc[..., pos : pos + g].mean(axis=-1, keepdims=True)
        pos += g
    v[..., ranked] = out
    return v


def sample_weights_ordinal(
    ranks: Sequence[int | None],
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Weights consistent with an importance ranking.

    The values a uniform simplex draw gives the ranked criteria are sorted
    in decreasing order and handed out by rank (rank 1 gets the largest
    value); ties share the mean of their block of sorted values.  ``None``
    ranks leave criteria unconstrained: they keep their own values.
    Simplex coordinates are exchangeable, so the sorted draw follows the
    uniform distribution conditioned on the ranking exactly.
    """
    ranks = list(ranks)
    plan = _rank_plan(ranks)  # checks the ranks before any draw
    return _rank_order(sample_weights_missing(len(ranks), rng, size), *plan)


def sample_weights_interval(
    bounds: Sequence[Sequence[float]],
    rng: np.random.Generator,
    size: int | None = None,
    max_attempts: int = MAX_ATTEMPTS,
) -> np.ndarray:
    """Uniform simplex weights restricted to per-criterion [lo, hi] bounds,
    drawn by rejection.

    ``max_attempts`` bounds the draws spent per accepted vector, so a
    request for many vectors fails only when the bounds accept less than
    about one draw in ``max_attempts``, the same as a request for one.
    """
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    need = 1 if size is None else size
    if need == 0:
        return np.empty((0, len(bounds)))
    rows = []
    got = 0
    attempts = 0
    while got < need:
        cap = max_attempts * (got + 1)
        if attempts >= cap:
            raise SamplingError(
                f"no admissible weight vector after {attempts} draws "
                f"({got} of {need} found): bounds {[list(b) for b in bounds]}"
            )
        batch = min(max(64, 2 * (need - got)), 8192, cap - attempts)
        cand = sample_weights_missing(len(bounds), rng, size=batch)
        attempts += batch
        good = cand[((cand >= lo) & (cand <= hi)).all(axis=-1)]
        if len(good):
            rows.append(good[: need - got])
            got += len(rows[-1])
    out = np.concatenate(rows, axis=0)
    return out[0] if size is None else out


def sample_group_weights(
    spec: WeightSpec, n: int, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Weight vectors for a sibling group, honoring its specification.

    One vector, or with ``size`` a (size, n) matrix of independent draws:
    the group's rows of :func:`_draw_weights`.
    """
    w = _draw_weights([(np.arange(n), spec)], n, rng, 1 if size is None else size)
    return w[0] if size is None else w


def _draw_weights(groups, n_nodes: int, rng: np.random.Generator | None, bs: int) -> np.ndarray:
    """``bs`` weight rows, (bs, n_nodes), of sibling ``groups``, (member
    node indices, spec) pairs in tree order, zero outside every group.

    A deterministic group writes its values and an interval group is drawn
    by :func:`sample_weights_interval`.  A missing or ordinal group makes
    one ``random`` call, the floats of one :func:`sample_weights_missing`
    call, and joins the stack of its (kind, ranks, size); after the walk
    each stack is sorted, differenced and ranked as one array.  The rows
    equal those of drawing each group on its own, in tree order.
    """
    w = np.zeros((bs, n_nodes))
    stacks: dict[tuple, tuple[list, list]] = {}
    for idx, spec in groups:
        if spec.kind == "deterministic":
            w[:, idx] = spec.values
        elif spec.kind == "interval":
            w[:, idx] = sample_weights_interval(spec.values, rng, bs)
        else:
            uniforms, members = stacks.setdefault((spec.kind, spec.values, len(idx)), ([], []))
            uniforms.append(rng.random((bs, len(idx) - 1)))
            members.append(idx)
    for (kind, ranks, _), (uniforms, members) in stacks.items():
        v = _simplex(np.stack(uniforms))
        if kind == "ordinal":
            _rank_order(v, *_rank_plan(ranks))
        w[:, np.array(members)] = v.swapaxes(0, 1)
    return w


# ---------------------------------------------------------------------------
# Value, threshold and profile samplers
# ---------------------------------------------------------------------------

def _by_rejection(shape: tuple[int, ...], draw, max_attempts: int):
    """Fill an array of ``shape`` row by row by rejection, redrawing only
    the rejected rows.

    ``draw(rows)`` returns candidates for the row indices ``rows`` and a
    mask of the accepted ones.  Each row gets at most ``max_attempts``
    candidates.  Returns the filled rows and the indices still rejected.
    """
    out, pending = np.empty(shape), np.arange(shape[0])
    for _ in range(max_attempts):
        cand, ok = draw(pending)
        out[pending[ok]] = cand[ok]
        pending = pending[~ok]
        if not len(pending):
            break
    return out, pending


def _cell_table(values: Sequence[StochasticValue]) -> np.ndarray:
    """The (5, n) table of stochastic ``values``: rows lo, hi, mean, sd
    (zero for an interval) and 1 for a normal value, 0 for an interval."""
    return np.array([(v.lo, v.hi, v.mean, v.sd, v.kind == "normal")
                     for v in values]).reshape(-1, 5).T


def _draw_cells(cells: np.ndarray, rng: np.random.Generator, size: int,
                bounds=(-np.inf, np.inf), max_attempts: int = VALUE_ATTEMPTS) -> np.ndarray:
    """``size`` draws of each cell of a table, as a (cells, size) array.

    ``bounds``, a (lo, hi) pair of numbers or of arrays that broadcast to
    (cells, size), narrows each cell's range per row.  Each cell's range
    keeps the shape its bounds broadcast to, (cells, 1) for bounds fixed
    over the rows.  A run of interval cells is one ``uniform`` call, which
    draws the floats of one call per cell and row in that order; a normal
    cell is redrawn, in the rows still outside its range, at most
    ``max_attempts`` times.  The first cell, and in it the first row, that
    cannot be drawn raises :class:`SamplingError`.
    """
    shape = (cells.shape[1], size)
    lo, hi = np.maximum(cells[0, :, None], bounds[0]), np.minimum(cells[1, :, None], bounds[1])
    singles = np.flatnonzero(cells[4])
    edges = sorted({0, shape[0], *singles.tolist(), *(singles + 1).tolist()})
    out = np.empty(shape)
    for a, b in zip(edges, edges[1:]):
        if not cells[4, a]:
            empty = lo[a:b] > hi[a:b]
            if empty.any():
                j, r = divmod(int(empty.argmax()), empty.shape[1])
                b_lo, b_hi = (np.broadcast_to(end, shape)[a + j, r] for end in bounds)
                raise SamplingError(f"interval [{cells[0, a + j]}, {cells[1, a + j]}] cannot "
                                    f"reach bounds [{b_lo}, {b_hi}]")
            out[a:b] = rng.uniform(lo[a:b], hi[a:b], (b - a, size))
            continue
        lo_a, hi_a = (np.broadcast_to(end[a], (size,)) for end in (lo, hi))

        def draw(rows):
            x = rng.normal(cells[2, a], cells[3, a], len(rows))
            return x, (lo_a[rows] <= x) & (x <= hi_a[rows])

        out[a], failed = _by_rejection((size,), draw, max_attempts)
        if len(failed):
            raise SamplingError(f"normal({cells[2, a]}, {cells[3, a]}) produced no draw inside "
                                f"[{lo_a[failed[0]]}, {hi_a[failed[0]]}] after {max_attempts} "
                                f"attempts")
    return out


def _fixed_and_sampled(table: Sequence[Sequence[StochasticValue]]):
    """The (rows, cols, 3) (m, alpha, beta) of the deterministic values of
    a (rows, cols) ``table``, zeros at the others, and the others as
    (row, col, value) cells, row by row."""
    fixed = [[v.resolved() if v.is_deterministic else TFN(0.0) for v in row] for row in table]
    return (np.array([[(f.m, f.alpha, f.beta) for f in row] for row in fixed]),
            [(h, t, v) for h, row in enumerate(table) for t, v in enumerate(row)
             if not v.is_deterministic])


def _order_faults(column: np.ndarray, maximize: bool) -> np.ndarray:
    """Rows of profile columns (rows, k+1, 3) whose successive levels do
    not dominate each other."""
    dominance, overlap = profile_pair_faults(column, maximize)
    return (dominance | overlap).any(axis=-1)


def _pair_faults(pair: np.ndarray, strict: bool | None) -> np.ndarray:
    """Rows of threshold pairs (rows, 2, k), q first, with q > p, or q == p
    when ``strict``; none when ``strict`` is None (a shape reads one of
    them and the other stays crisp 0)."""
    q, p = pair[..., 0].T
    return np.zeros(len(q), dtype=bool) if strict is None else (q > p) | ((q == p) & strict)


#: The failure of each row test, from its column's flag and index.
_FAULT_TEXT = {
    _order_faults: lambda maximize, t: f"no dominance-respecting profile draw on criterion {t}",
    _pair_faults: lambda strict, t: f"no admissible threshold pair (q {'<' if strict else '<='} p)",
}


def _draw_columns(fixed, sampled, faults, flags, rng, size: int,
                  max_attempts: int = VALUE_ATTEMPTS) -> np.ndarray:
    """``size`` draws, (size, rows, cols, k), of the (rows, cols, k) table
    ``fixed`` with its (row, col, value) cells ``sampled`` drawn column by
    column in col order, each column's cells in their order in
    ``sampled``.  A column's rows are redrawn while the row test
    ``faults(column, flags[col])`` flags them, at most ``max_attempts``
    times, and then raise :class:`SamplingError`.  With no cell to draw,
    the draws are one read-only view of ``fixed``."""
    if not sampled:
        return np.broadcast_to(fixed, (size,) + fixed.shape)
    out = np.repeat(fixed[None], size, axis=0)
    for t in sorted({t for _, t, _ in sampled}):
        at, values = zip(*[(h, v) for h, s, v in sampled if s == t])
        cells = _cell_table(values)

        def draw(rows):
            column = np.repeat(fixed[None, :, t], len(rows), axis=0)
            column[:, at, 0] = _draw_cells(cells, rng, len(rows), max_attempts=max_attempts).T
            return column, ~faults(column, flags[t])

        out[:, :, t], failed = _by_rejection((size,) + fixed[:, t].shape, draw, max_attempts)
        if len(failed):
            raise SamplingError(f"{_FAULT_TEXT[faults](flags[t], t)} after {max_attempts} attempts")
    return out


def sample_value(
    value: StochasticValue,
    rng: np.random.Generator | None,
    bounds: tuple[float, float] | np.ndarray | None = None,
    max_attempts: int = VALUE_ATTEMPTS,
    size: int | None = None,
) -> TFN | np.ndarray:
    """Draw one concrete evaluation, or with ``size`` a (size, 3) array of
    (m, alpha, beta) rows.

    Deterministic kinds resolve without consuming randomness.  Stochastic
    kinds are redrawn until they land inside ``bounds`` (when given), which
    keeps sampled evaluations within the span of the limiting profiles.
    ``bounds`` is a (lo, hi) pair, or with ``size`` a (size, 2) array of one
    pair per row.  Only rejected rows are redrawn, each at most
    ``max_attempts`` times.
    """
    if value.is_deterministic:
        f = value.resolved()
        return f if size is None else np.full((size, 3), (f.m, f.alpha, f.beta))
    n = 1 if size is None else size
    bounds = (-np.inf, np.inf) if bounds is None else np.broadcast_to(bounds, (n, 2)).T[:, None]
    x = _draw_cells(_cell_table([value]), rng, n, bounds, max_attempts)[0]
    return TFN(float(x[0])) if size is None else np.column_stack([x, np.zeros((n, 2))])


def sample_thresholds(
    q_spec: StochasticValue,
    p_spec: StochasticValue,
    rng: np.random.Generator | None,
    strict: bool = False,
    max_attempts: int = VALUE_ATTEMPTS,
    size: int | None = None,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Draw an (indifference, preference) threshold pair with q <= p, or
    with ``size`` two (size,) arrays of pairs.

    Pairs violating the ordering are redrawn; ``strict`` additionally
    requires q < p, which the linear shape needs.  Only rejected rows are
    redrawn, each at most ``max_attempts`` times, and so is a normal
    threshold inside its truncation.
    """
    need = "q < p" if strict else "q <= p"
    if q_spec.is_deterministic and p_spec.is_deterministic:
        q, p = q_spec.resolved().m, p_spec.resolved().m
        if q > p or (strict and q >= p):
            raise InputError(THRESHOLD, f"thresholds must satisfy {need}, got q={q}, p={p}")
        return (q, p) if size is None else (np.full(size, q), np.full(size, p))
    q, p = _draw_columns(*_fixed_and_sampled([[q_spec], [p_spec]]), _pair_faults, [strict], rng,
                         1 if size is None else size, max_attempts)[..., 0, 0].T
    return (float(q[0]), float(p[0])) if size is None else (q, p)


def sample_profiles(
    profile_specs: Sequence[Sequence[StochasticValue]],
    models: Sequence[PreferenceModel],
    rng: np.random.Generator | None,
    max_attempts: int = VALUE_ATTEMPTS,
    size: int | None = None,
) -> np.ndarray:
    """Draw the (k+1, n_el, 3) profile array, best profile first, or with
    ``size`` a (size, k+1, n_el, 3) stack of independent draws.

    Deterministic columns pass through unchecked (they are validated when
    the problem is parsed); columns with stochastic entries are redrawn
    until successive profiles dominate each other.  Only rejected rows are
    redrawn, each at most ``max_attempts`` times, and so is a normal level
    inside its truncation.
    """
    out = _draw_columns(*_fixed_and_sampled(profile_specs), _order_faults,
                        [m.direction == "maximize" for m in models], rng,
                        1 if size is None else size, max_attempts)
    return out[0] if size is None else out


# ---------------------------------------------------------------------------
# The simulation loop
# ---------------------------------------------------------------------------

@dataclass
class AcceptabilityResult:
    """Category acceptability indices from one analysis run.

    ``category_index[i, h]`` is the share of iterations assigning
    alternative i to category h+1 under the configured rule;
    ``node_index[r, i, h]`` is the same for the net-style assignment under
    tree node r (in depth-first ``node_paths`` order).  Whenever profile
    flows fail to bracket an alternative, that one tally cell (overall or
    per-node) is skipped and ``boundary_violations`` is incremented, so a
    row sums to less than one exactly when some of its draws went
    unbracketed.
    """

    categories: tuple[str, ...]
    alternatives: tuple[str, ...]
    category_index: np.ndarray
    node_paths: tuple[tuple[int, ...], ...]
    node_index: np.ndarray
    iterations: int
    seed: int
    rule: str
    defuzz: str
    boundary_violations: int = 0


class ProblemRuntime:
    """Precomputed sampling and evaluation state for one problem."""

    def __init__(self, problem: "Problem", rule: str, defuzz: str, seed: int, strict: bool):
        tree = problem.tree
        self.m = len(problem.alternative_names)
        self.c = len(problem.fixed_profiles)
        # before any draw, so a bad option never reaches a worker; an engine
        # with no rule (all three tables) serves single evaluations only
        if rule not in RULES:
            raise ValueError(f"unknown assignment rule {rule!r}")
        self.engine = BatchEngine(tree, self.m, self.c, rule)
        if defuzz not in DEFUZZ_METHODS:
            raise ValueError(f"unknown defuzzification method {defuzz!r}")
        self.problem = problem
        self.rule = rule
        self.defuzz = defuzz
        self.seed = seed
        self.strict = strict
        self.k = self.c - 1
        self.n_nodes = len(tree.nodes)
        # a run's counts are one vector: each node's m * k cells in tree
        # order, from node * m * k, the whole tree's at node n_nodes as in
        # the engine, then a spill cell for unbracketed entries; cell_bases
        # holds each alternative's cell of category 1, less one, (m,)
        self.cell_bases = np.arange(self.m, dtype=np.intp) * self.k - 1
        self.spill = (self.n_nodes + 1) * self.m * self.k
        self.weight_groups = [
            (np.array([tree.node_index[p] for p in g.members], dtype=np.int64), g.spec)
            for g in tree.sibling_groups()]
        # shape codes, s and directions; q and p are set per data draw
        models = problem.preference_models
        self.prefs = PreferenceArrays.of(models, thresholds=(None, None))
        # the (2, n_el, 1) threshold modes, a q row over a p row (0 where
        # drawn), their stochastic (row, slot, value) cells, and each slot's
        # ORDERED_PAIRS strictness (None: the shape reads one threshold)
        fixed, self.sampled_thresholds = _fixed_and_sampled([[mdl.q for mdl in models],
                                                             [mdl.p for mdl in models]])
        self.fixed_thresholds = fixed[..., :1]
        self.pair_strictness = [ORDERED_PAIRS.get(mdl.shape) for mdl in models]
        # data draws start from the deterministic profiles and evaluation
        # cells, resolved at parse time, and draw the others; the
        # evaluation cells from one table built here
        self.fixed_evals = problem.fixed_evals
        self.sampled_evals = cells = problem.sampled_evals
        self.eval_slots = np.array([(i, t) for i, t, _ in cells], dtype=np.int64).reshape(-1, 2).T
        self.eval_cells = _cell_table([v for _, _, v in cells])
        self.draws_anything = not problem.is_deterministic_data or any(
            spec.kind != "deterministic" for _, spec in self.weight_groups)
        # what a window counts (see _tally_window): drawn data counts every
        # node group and the whole tree window by window
        self.window = self.engine.window_draws()
        self.window_parts = ((0, 1, 2), True)
        self.static_rows = self.static_components = None
        self.static_counts = 0
        if problem.is_deterministic_data:
            # the fixed nodes' rows and counts, the same for every weight
            # row of the run, once; a block adds its size times the counts
            # and folds only the rest, a window of weight rows at a time; the
            # draw has no draw axis, so the engine keeps no kernel workspace
            tables = self.engine.pref_components(
                *self._window_data(self._sample_data(None, 1), 0), self.defuzz)
            w = _draw_weights([g for g in self.weight_groups if g[1].kind == "deterministic"],
                              self.n_nodes, None, 1)
            self.static_rows = self.engine.fold_fixed(tables, w)
            self.static_components = self.static_rows[:, :tables.shape[-1]]  # a view
            root_fixed = self.engine.root_fixed
            self.static_counts = self._tally_window(self.static_rows, w, (0, 1), root_fixed)
            self.window = self.engine.window_rows(BLOCK)
            self.window_parts = None if root_fixed else ((2,), True)

    def _sample_data(self, rng: np.random.Generator | None, size: int):
        """A block of ``size`` data draws: the preference arrays with
        (n_el, size) ``q`` and ``p``, the (cells, size) draws of the
        stochastic evaluation cells, in the order of ``sampled_evals``, and
        the (size, c, n_el, 3) profiles; :meth:`_window_data` makes
        evaluation tables of them.

        Draws the stochastic profile columns in slot order, each best level
        first and redrawn until ordered; the thresholds of stochastic
        criteria in slot order, q before p, a level or linear pair redrawn
        until ordered, as a two-row (q, p) table drawn by the same column
        sampler as the profiles; then the stochastic evaluation cells in
        row-major order inside their row's profile envelope, from the fixed
        profiles as one column when no profile is drawn.  Every cell is drawn
        through one table sampler, which draws each run of interval cells
        in one ``uniform`` call (the floats of one call per cell).  Fixed
        inputs were resolved at set-up, so static data needs no generator,
        and undrawn profiles or thresholds are read-only views.
        """
        profiles = _draw_columns(self.problem.fixed_profiles, self.problem.sampled_profiles,
                                 _order_faults, self.prefs.maximize, rng, size)
        thresholds = _draw_columns(self.fixed_thresholds, self.sampled_thresholds, _pair_faults,
                                   self.pair_strictness, rng, size)
        q, p = np.moveaxis(thresholds[..., 0], 0, -1)
        cells = np.empty((0, size))
        if self.sampled_evals:
            drawn = profiles if self.problem.sampled_profiles else profiles[:1]
            envelope = profile_envelope(drawn.swapaxes(1, 2))
            cells = _draw_cells(self.eval_cells, rng, size, envelope[:, self.eval_slots[1]].T)
        return self.prefs._replace(q=q, p=p), cells, profiles

    def _window_data(self, data, rows: slice | int):
        """The inputs of :meth:`~smaaflow.flows.BatchEngine.pref_components`
        for the draws ``rows`` of a block ``data`` of :meth:`_sample_data`:
        the preference arrays with those draws' ``q`` and ``p``, their
        (draws, m, n_el, 3) evaluations, and their profiles; an integer
        ``rows`` gives one draw's, without the draw axis.  The evaluations
        are the fixed table with the drawn cells written in, or a read-only
        view of it when no cell is drawn."""
        prefs, cells, profiles = data
        modes = cells[:, rows]
        evals = np.broadcast_to(self.fixed_evals, modes.shape[1:] + self.fixed_evals.shape)
        if self.sampled_evals:  # a copy to write into
            i, t = self.eval_slots
            evals = evals.copy()
            evals[..., i, t, 0] = modes.T
        return prefs._replace(q=prefs.q[:, rows], p=prefs.p[:, rows]), evals, profiles[rows]

    def draw_block(self, block: int, bs: int):
        """The data draw (see :meth:`_sample_data`; None for static data)
        and the (bs, n_nodes) weight rows of the ``bs`` iterations starting
        at iteration ``block``, from that block's substream.  A block that
        draws neither weights nor data makes no generator."""
        rng = iteration_rng(self.seed, block // BLOCK) if self.draws_anything else None
        data = None if self.static_rows is not None else self._sample_data(rng, bs)
        return data, _draw_weights(self.weight_groups, self.n_nodes, rng, bs)

    def simulate(self, start: int, count: int) -> np.ndarray:
        """Counts of iterations [start, start + count), one int64 vector of
        ``spill + 1`` cells: per node, then the whole tree, then the
        unbracketed entries (see :meth:`_tally_window`).

        ``start`` is a multiple of :data:`BLOCK`; each block of iterations
        draws from its own substream.
        """
        counts = np.zeros(self.spill + 1, dtype=np.int64)
        for block in range(start, start + count, BLOCK):
            bs = min(BLOCK, start + count - block)
            counts += self.tally_block(*self.draw_block(block, bs), block)
        return counts

    def tally_block(self, data, w: np.ndarray, block: int) -> np.ndarray:
        """Counts, as :meth:`simulate` lays them out, of one block of weight
        rows ``w`` starting at iteration ``block``, and its data draw
        ``data`` (see :meth:`draw_block`), window by window.

        Drawn data goes through the engine :attr:`window` draws at a time
        (:meth:`~smaaflow.flows.BatchEngine.window_draws`): a window's leaf
        tables are built by
        :meth:`~smaaflow.flows.BatchEngine.pref_components`, which checks
        their profile order as it builds them, once per data draw, and only
        the tables the run's rule reads; they are then folded, bracketed and
        counted with the window's weight rows by :meth:`_tally_window`, and
        dropped before the next window is built.  Static data adds the
        block's size times :attr:`static_counts`, the counts of its fixed
        nodes (and of a fixed whole tree) for one weight row, and goes
        :attr:`window` weight rows at a time
        (:meth:`~smaaflow.flows.BatchEngine.window_rows`) through the
        varying nodes and the whole tree, read from :attr:`static_rows`; a
        whole tree that is fixed leaves no window to go through.  Counts
        add up over the windows, and a strict block raises
        :class:`BoundaryViolation` only after its last window, so an order
        fault in any window raises its
        :class:`~smaaflow.errors.InvariantError` first.
        """
        counts = len(w) * self.static_counts
        for j in range(0, len(w) if self.window_parts else 0, self.window):
            rows = slice(j, j + self.window)
            tables = self.static_rows if data is None else self.engine.pref_components(
                *self._window_data(data, rows), self.defuzz)
            counts += self._tally_window(tables, w[rows], *self.window_parts)
            del tables  # free the window's tables before the next is built
        if counts[self.spill] and self.strict:
            raise BoundaryViolation(
                f"flow outside the profile span in iteration block "
                f"starting at {block} (strict mode)"
            )
        return counts

    def _tally_window(self, components: np.ndarray, w: np.ndarray, groups,
                      whole: bool) -> np.ndarray:
        """Flows, bracketing and counts, as :meth:`simulate` lays them out,
        of the weight rows ``w`` of one window, for the engine's node
        ``groups`` (indices into its ``node_groups``) and, when ``whole``,
        the whole tree.  The leaf tables ``components`` (net, and under
        ``positive`` or ``negative`` that table too) were checked for
        profile order when they were built.

        The whole tree is bracketed under the run's rule and each node group
        under net, into (node ids, categories, validity), categories
        (nodes, rows, m); the whole tree is node ``n_nodes``.  Each entry's
        categories are overwritten with their cells, from the
        alternatives' cell bases offset by the cells of the entry's nodes,
        and its unbracketed entries with the spill cell, so one
        ``bincount`` counts both.  Every part counted has one row per
        weight row: a fixed part has one per data draw, and a window of
        drawn data holds one data draw per weight row.
        """
        bf = self.engine.flows(components, w)
        entries = self.engine.assign_nodes(bf, groups)
        if whole:
            cat, valid = self.engine.assign_overall(bf, self.rule)
            entries.append((np.array([self.n_nodes]), cat[None], valid[None]))
        counts = 0
        for ids, cat, valid in entries:
            cells = np.add(cat, ids[:, None, None] * (self.m * self.k) + self.cell_bases, out=cat)
            cells[~valid] = self.spill
            counts += np.bincount(cells.ravel("K"), minlength=self.spill + 1)
        return counts


#: Runtime of the current ``run_smaa`` call, given to each worker at start-up.
_RUNTIME: ProblemRuntime | None = None

#: Most workers ``ProcessPoolExecutor`` accepts on Windows.
MAX_WORKERS = 61


def _adopt(state: ProblemRuntime) -> None:
    global _RUNTIME
    _RUNTIME = state


def _run_range(span):
    start, count = span
    return _RUNTIME.simulate(start, count)


def run_smaa(
    problem: "Problem",
    iterations: int = 10_000,
    seed: int = 0,
    rule: str = "net",
    threads: int = 1,
    defuzz: str = "centroid",
    strict: bool = False,
) -> AcceptabilityResult:
    """Monte Carlo category acceptability analysis.

    Parameters
    ----------
    problem :
        A parsed sorting problem.
    iterations :
        Number of Monte Carlo draws.
    seed :
        Root seed; any integer, masked to 64 bits.
    rule :
        Assignment rule for the overall index: ``positive``, ``negative``
        or ``net``.  Per-node indices always use the net-style rule.
    threads :
        Worker processes, at least one, at most one per block and
        :data:`MAX_WORKERS`.
        Each gets the built runtime from the pool at start-up, under any
        start method.  Results are identical for any thread count.
    defuzz :
        Defuzzification of the aggregated preference degrees, one of
        :data:`~smaaflow.fuzzy.DEFUZZ_METHODS`.  An unknown ``rule`` or
        ``defuzz`` raises ``ValueError`` before any draw.
    strict :
        Raise on the first boundary violation instead of recording it.

    ``iterations``, ``seed`` and ``threads`` take whatever
    ``operator.index`` takes except a bool, and raise ``ValueError``
    naming the option otherwise.
    """
    iterations, seed, threads = (_integer(v, name) for v, name in (
        (iterations, "iterations"), (seed, "seed"), (threads, "threads")))
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    state = ProblemRuntime(problem, rule, defuzz, seed, strict)
    spans = _split(iterations, threads)
    if len(spans) == 1:
        parts = [state.simulate(0, iterations)]
    else:
        with ProcessPoolExecutor(len(spans), initializer=_adopt, initargs=(state,)) as pool:
            parts = list(pool.map(_run_range, spans))
    counts = sum(parts)
    index = counts[:-1].reshape(state.n_nodes + 1, state.m, state.k) / iterations
    return AcceptabilityResult(
        categories=tuple(problem.categories),
        alternatives=tuple(problem.alternative_names),
        category_index=index[-1],
        node_paths=tuple(n.path for n in problem.tree.nodes),
        node_index=index[:-1],
        iterations=iterations,
        seed=seed,
        rule=rule,
        defuzz=defuzz,
        boundary_violations=int(counts[-1]),
    )


def _integer(value, name: str) -> int:
    """``value`` as an int, if ``operator.index`` takes it and it is no bool."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _split(iterations: int, threads: int) -> list[tuple[int, int]]:
    """Contiguous iteration ranges, one per worker and at most
    :data:`MAX_WORKERS`, cut only at multiples of :data:`BLOCK`."""
    blocks = -(-iterations // BLOCK)
    threads = min(threads, blocks, MAX_WORKERS)
    base, extra = divmod(blocks, threads)
    spans = []
    start = 0
    for i in range(threads):
        stop = min(iterations, start + (base + (1 if i < extra else 0)) * BLOCK)
        spans.append((start, stop - start))
        start = stop
    return spans


def deterministic_result(
    problem: "Problem",
    rule: str = "net",
    defuzz: str = "centroid",
    strict: bool = False,
) -> AcceptabilityResult:
    """Single engine run with all inputs fixed (zero-variance analysis).

    Requires deterministic weights, evaluations, profiles and thresholds;
    the result's indices are unit rows.  It is :func:`run_smaa` with one
    iteration, whose only draw is then the one possible.
    """
    problem.tree.deterministic_weights()  # raises unless every group is deterministic
    if not problem.is_deterministic_data:
        raise InputError(
            SAMPLING,
            "deterministic run requires fully deterministic evaluations, "
            "profiles and thresholds",
        )
    return run_smaa(problem, iterations=1, seed=0, rule=rule, threads=1, defuzz=defuzz,
                    strict=strict)
