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
over processes.  Within a block the sampling order is fixed, and each step
draws for the whole block at once: the profiles, the thresholds of each
stochastic criterion in tree order, each evaluation (alternative by
alternative, criterion by criterion), then one matrix of weight vectors
per sibling group in tree order.
"""

from __future__ import annotations

import multiprocessing
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
from .flows import BatchEngine, profile_pair_faults
from .fuzzy import TFN
from .hierarchy import WeightSpec
from .preference import THRESHOLDS, PreferenceArrays, PreferenceSpec

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
        return cls("interval", lo=float(lo), hi=float(hi))

    @classmethod
    def normal(cls, mean: float, sd: float, lo: float = -np.inf, hi: float = np.inf) -> "StochasticValue":
        if sd <= 0:
            raise ValueError(f"normal spread must be positive, got {sd}")
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
    derived from the root seed."""
    ss = np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------------
# Weight samplers
# ---------------------------------------------------------------------------

def sample_weights_missing(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Uniform weights on the standard simplex.

    Sorts n-1 uniform draws and takes consecutive gaps, which distributes
    the weight vector uniformly over {w >= 0, sum w = 1}.  With ``size``
    the result is a (size, n) matrix of independent draws.
    """
    if n < 1:
        raise ValueError("need at least one weight")
    shape = (n - 1,) if size is None else (size, n - 1)
    u = rng.random(shape)
    u.sort(axis=-1)
    return np.diff(u, axis=-1, prepend=0.0, append=1.0)


def _rank_groups(ranks: Sequence[int]) -> list[np.ndarray]:
    """Member indices per rank, most important rank first."""
    by_rank: dict[int, list[int]] = {}
    for i, r in enumerate(ranks):
        by_rank.setdefault(r, []).append(i)
    return [np.array(by_rank[r], dtype=np.int64) for r in sorted(by_rank)]


def _apply_rank_order(sorted_desc: np.ndarray, groups: list[np.ndarray]) -> np.ndarray:
    """Assign descending simplex draws to criteria by rank group.

    A group of g criteria takes the next g sorted values; ties within the
    group all receive their arithmetic mean, so equally ranked criteria get
    exactly equal weights.
    """
    out = np.empty_like(sorted_desc)
    pos = 0
    for members in groups:
        g = len(members)
        out[..., members] = sorted_desc[..., pos : pos + g].mean(axis=-1, keepdims=True)
        pos += g
    return out


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
    if any(r is not None and (r != int(r) or r < 1) for r in ranks):
        raise ValueError(f"ranks must be integers >= 1 or None, got {ranks}")
    ranked = np.array([i for i, r in enumerate(ranks) if r is not None], dtype=np.int64)
    groups = _rank_groups([ranks[i] for i in ranked])
    v = sample_weights_missing(len(ranks), rng, size)
    desc = np.flip(np.sort(v[..., ranked], axis=-1), axis=-1)
    v[..., ranked] = _apply_rank_order(desc, groups)
    return v


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

    One vector, or with ``size`` a (size, n) matrix of independent draws.
    """
    if spec.kind == "deterministic":
        values = np.array(spec.values)
        return values if size is None else np.tile(values, (size, 1))
    if spec.kind == "ordinal":
        return sample_weights_ordinal(spec.values, rng, size)
    if spec.kind == "interval":
        return sample_weights_interval(spec.values, rng, size)
    return sample_weights_missing(n, rng, size)


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
    lo, hi = np.broadcast_to((-np.inf, np.inf) if bounds is None else bounds, (n, 2)).T
    vlo, vhi = np.maximum(value.lo, lo), np.minimum(value.hi, hi)
    if value.kind == "interval":
        empty = np.flatnonzero(vlo > vhi)
        if len(empty):
            raise SamplingError(f"interval [{value.lo}, {value.hi}] cannot reach bounds "
                                f"[{lo[empty[0]]}, {hi[empty[0]]}]")
        x = rng.uniform(vlo, vhi)
    else:  # normal, truncated to the declared [lo, hi] intersected with bounds
        def draw(rows):
            d = rng.normal(value.mean, value.sd, len(rows))
            return d, (vlo[rows] <= d) & (d <= vhi[rows])

        x, failed = _by_rejection((n,), draw, max_attempts)
        if len(failed):
            raise SamplingError(
                f"normal({value.mean}, {value.sd}) produced no draw inside "
                f"[{vlo[failed[0]]}, {vhi[failed[0]]}] after {max_attempts} attempts"
            )
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
    redrawn, each at most ``max_attempts`` times.
    """
    if q_spec.is_deterministic and p_spec.is_deterministic:
        q, p = q_spec.resolved().m, p_spec.resolved().m
        if q > p or (strict and q >= p):
            need = "q < p" if strict else "q <= p"
            raise InputError(THRESHOLD, f"thresholds must satisfy {need}, got q={q}, p={p}")
        return (q, p) if size is None else (np.full(size, q), np.full(size, p))

    def draw(rows):
        q = sample_value(q_spec, rng, size=len(rows))[:, 0]
        p = sample_value(p_spec, rng, size=len(rows))[:, 0]
        return np.stack([q, p], axis=1), (q < p) | ((q == p) & (not strict))

    pairs, failed = _by_rejection((1 if size is None else size, 2), draw, max_attempts)
    if len(failed):
        raise SamplingError(
            f"no admissible threshold pair (q <= p) after {max_attempts} attempts"
        )
    return tuple(map(float, pairs[0])) if size is None else (pairs[:, 0], pairs[:, 1])


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
    redrawn, each at most ``max_attempts`` times.
    """
    c, n_el = len(profile_specs), len(profile_specs[0])
    n = 1 if size is None else size
    out = np.empty((n, c, n_el, 3))
    for t in range(n_el):
        spec_col = [profile_specs[h][t] for h in range(c)]
        if all(v.is_deterministic for v in spec_col):
            out[:, :, t] = [(f.m, f.alpha, f.beta) for f in (v.resolved() for v in spec_col)]
            continue
        maximize = models[t].direction == "maximize"

        def draw(rows):
            col = np.stack([sample_value(v, rng, size=len(rows)) for v in spec_col], axis=1)
            dominance, overlap = profile_pair_faults(col, maximize)
            return col, ~(dominance | overlap).any(axis=-1)

        column, failed = _by_rejection((n, c, 3), draw, max_attempts)
        if len(failed):
            raise SamplingError(
                f"no dominance-respecting profile draw on criterion {t} "
                f"after {max_attempts} attempts"
            )
        out[:, :, t] = column
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
        self.problem = problem
        self.rule = rule
        self.defuzz = defuzz
        self.seed = seed
        self.strict = strict
        tree = problem.tree
        self.m = len(problem.alternative_names)
        self.c = len(problem.profile_specs)
        self.k = self.c - 1
        self.n_nodes = len(tree.nodes)
        self.engine = BatchEngine(tree, self.m, self.c)
        self.groups = [
            (np.array([tree.node_index[p] for p in g.members], dtype=np.int64), g.spec)
            for g in tree.sibling_groups()
        ]
        # shape codes, s and directions; q and p are set per data draw
        self.prefs = PreferenceArrays.of(problem.preference_models, thresholds=(None, None))
        data_fixed = problem.is_deterministic_data
        self.static_components = self._sample_components(None, 1)[0] if data_fixed else None

    def _sample_components(self, rng: np.random.Generator | None, size: int) -> np.ndarray:
        """Leaf flow tables of ``size`` data draws, (size, 3 * n_pairs, n_el).

        Draws the profiles of every row, then the thresholds of the
        stochastic criteria, then each evaluation inside its row's profile
        envelope.  Deterministic inputs consume no randomness, so static
        data needs no generator.
        """
        models = self.problem.preference_models
        n_el = len(models)
        profiles = sample_profiles(self.problem.profile_specs, models, rng, size=size)
        q, p = np.empty((2, size, n_el))
        for t, mdl in enumerate(models):
            if mdl.is_deterministic:
                q[:, t], p[:, t] = mdl.q.resolved().m, mdl.p.resolved().m
            elif THRESHOLDS[mdl.shape] == ("q", "p"):
                q[:, t], p[:, t] = sample_thresholds(mdl.q, mdl.p, rng, size=size,
                                                     strict=mdl.shape == "linear")
            else:  # the one threshold the shape reads; the other stays at crisp 0
                q[:, t], p[:, t] = (sample_value(v, rng, size=size)[:, 0] for v in (mdl.q, mdl.p))
        envelope = np.stack([(profiles[..., 0] - profiles[..., 1]).min(axis=1),
                             (profiles[..., 0] + profiles[..., 2]).max(axis=1)], axis=-1)
        evals = np.empty((size, self.m, n_el, 3))
        for i, row in enumerate(self.problem.evaluation_specs):
            for t, v in enumerate(row):
                evals[:, i, t] = sample_value(v, rng, bounds=envelope[:, t], size=size)
        # leaf-major like the engine's own tables: node_values reads each leaf contiguously
        out = np.empty((size, n_el, 3 * self.engine.n_pairs))
        for j in range(size):
            prefs = self.prefs._replace(q=q[j], p=p[j])
            out[j] = self.engine.pref_components(prefs, evals[j], profiles[j], self.defuzz).T
        return out.transpose(0, 2, 1)

    def simulate(self, start: int, count: int):
        """Tally assignments for iterations [start, start + count).

        ``start`` is a multiple of :data:`BLOCK`; each block of iterations
        draws from its own substream.
        """
        cat_hits = np.zeros(self.m * self.k, dtype=np.int64)
        node_hits = np.zeros(self.n_nodes * self.m * self.k, dtype=np.int64)
        violations = 0
        for block in range(start, start + count, BLOCK):
            bs = min(BLOCK, start + count - block)
            rng = iteration_rng(self.seed, block // BLOCK)
            components = self.static_components
            if components is None:
                components = self._sample_components(rng, bs)
            w = np.empty((bs, self.n_nodes))
            for idx, spec in self.groups:
                w[:, idx] = sample_group_weights(spec, len(idx), rng, size=bs)
            ch, nh, bad = self.tally_block(components, w, block)
            cat_hits += ch
            node_hits += nh
            violations += bad
        return cat_hits, node_hits, violations

    def tally_block(self, components: np.ndarray, w: np.ndarray, block: int):
        """Flows, ordering check, bracketing and category counts for one
        block of weight rows starting at iteration ``block``."""
        m, k, n_nodes = self.m, self.k, self.n_nodes
        bf = self.engine.flows(self.engine.node_values(components, w))
        self.engine.check_ordering(bf)
        cat, valid = self.engine.assign_overall(bf, self.rule)
        ncat, nvalid = self.engine.assign_nodes(bf)
        bad = int((~valid).sum() + (~nvalid).sum())
        if bad and self.strict:
            raise BoundaryViolation(
                f"flow outside the profile span in iteration block "
                f"starting at {block} (strict mode)"
            )
        alt_ids = np.arange(m)
        flat = alt_ids * k + (cat - 1)
        cat_hits = np.bincount(flat[valid], minlength=m * k)
        nflat = (np.arange(n_nodes)[:, None, None] * m + alt_ids) * k + (ncat - 1)
        node_hits = np.bincount(nflat[nvalid], minlength=n_nodes * m * k)
        return cat_hits, node_hits, bad


#: Runtime of the current ``run_smaa`` call, inherited by forked workers.
_RUNTIME: ProblemRuntime | None = None


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
        Root seed; any Python integer, masked to 64 bits.
    rule :
        Assignment rule for the overall index: ``positive``, ``negative``
        or ``net``.  Per-node indices always use the net-style rule.
    threads :
        Worker processes.  Results are identical for any thread count.
    strict :
        Raise on the first boundary violation instead of recording it.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if rule not in ("positive", "negative", "net"):
        raise ValueError(f"unknown assignment rule {rule!r}")
    global _RUNTIME
    state = ProblemRuntime(problem, rule, defuzz, seed, strict)
    spans = _split(iterations, threads)
    ctx = None
    if len(spans) > 1:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            pass  # no fork on this platform; run in-process
    if ctx is None:
        parts = [state.simulate(0, iterations)]
    else:
        _RUNTIME = state
        try:
            with ProcessPoolExecutor(max_workers=len(spans), mp_context=ctx) as pool:
                parts = list(pool.map(_run_range, spans))
        finally:
            _RUNTIME = None
    cat_hits, node_hits, violations = (sum(col) for col in zip(*parts))
    return _result(state, cat_hits, node_hits, violations, iterations)


def _result(state: ProblemRuntime, cat_hits, node_hits, violations, iterations):
    """Acceptability indices from the category counts of ``iterations`` draws."""
    m, k, n_nodes = state.m, state.k, state.n_nodes
    problem = state.problem
    return AcceptabilityResult(
        categories=tuple(problem.categories),
        alternatives=tuple(problem.alternative_names),
        category_index=cat_hits.reshape(m, k) / iterations,
        node_paths=tuple(n.path for n in problem.tree.nodes),
        node_index=node_hits.reshape(n_nodes, m, k) / iterations,
        iterations=iterations,
        seed=state.seed,
        rule=state.rule,
        defuzz=state.defuzz,
        boundary_violations=violations,
    )


def _split(iterations: int, threads: int) -> list[tuple[int, int]]:
    """Contiguous iteration ranges, one per worker, cut only at multiples
    of :data:`BLOCK`."""
    blocks = -(-iterations // BLOCK)
    threads = max(1, min(threads, blocks))
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
    the result's indices are unit rows.
    """
    weights = problem.tree.deterministic_weights()
    if not problem.is_deterministic_data:
        raise InputError(
            SAMPLING,
            "deterministic run requires fully deterministic evaluations, "
            "profiles and thresholds",
        )
    state = ProblemRuntime(problem, rule, defuzz, seed=0, strict=strict)
    w = np.array([[weights[n.path] for n in problem.tree.nodes]])
    cat_hits, node_hits, violations = state.tally_block(state.static_components, w, 0)
    return _result(state, cat_hits, node_hits, violations, 1)
