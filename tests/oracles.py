"""Independent reference implementations used to cross-check the package.

Everything in this module is deliberately written in plain Python tuple
arithmetic: no numpy, and no imports from ``smaaflow`` itself.  The
package aggregates preferences recursively over the criteria tree and
evaluates batches with vectorized array code; the oracle instead
flattens the tree to elementary criteria with path-product weights and
loops over scalars.  Agreement between two code paths that share
nothing but the mathematical definitions is what makes the comparison
meaningful.

Triangular fuzzy numbers are ``(m, alpha, beta)`` tuples throughout.
"""

from __future__ import annotations

import math
import random

# ---------------------------------------------------------------------------
# Triangular fuzzy arithmetic on bare tuples
# ---------------------------------------------------------------------------


def tfn(m, alpha=0.0, beta=0.0):
    return (float(m), float(alpha), float(beta))


def tfn_add(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2])


def tfn_sub(x, y):
    # subtraction couples the spreads crosswise
    return (x[0] - y[0], x[1] + y[2], x[2] + y[1])


def tfn_scale(w, x):
    if w < 0:
        raise ValueError("nonnegative scaling only")
    return (w * x[0], w * x[1], w * x[2])


def tfn_defuzz(x, method="centroid"):
    m, alpha, beta = x
    if method == "centroid":
        return m + (beta - alpha) / 3.0
    if method == "spread-sum":
        return m + (beta + alpha) / 3.0
    raise ValueError(method)


# ---------------------------------------------------------------------------
# Scalar preference functions
# ---------------------------------------------------------------------------


def pref_value(model, d):
    """Preference degree for a crisp performance difference ``d``."""
    shape = model["shape"]
    q = model.get("q", 0.0)
    p = model.get("p", 0.0)
    s = model.get("s", 0.0)
    if shape == "usual":
        return 1.0 if d > 0 else 0.0
    if shape == "u-shape":
        return 1.0 if d > q else 0.0
    if shape == "v-shape":
        if d <= 0:
            return 0.0
        return d / p if d < p else 1.0
    if shape == "level":
        if d <= q:
            return 0.0
        return 0.5 if d <= p else 1.0
    if shape == "linear":
        if d <= q:
            return 0.0
        return (d - q) / (p - q) if d < p else 1.0
    if shape == "gaussian":
        if d <= 0:
            return 0.0
        return 1.0 - math.exp(-(d * d) / (2.0 * s * s))
    raise ValueError(shape)


def pref_fuzzy(model, a, b):
    """Fuzzy preference of evaluation ``a`` over ``b`` on one criterion.

    The oriented difference is a - b for maximized criteria and b - a for
    minimized ones; the preference function is then applied at the mode
    and at both support ends of that fuzzy difference.
    """
    if model.get("direction", "maximize") == "maximize":
        d = tfn_sub(a, b)
    else:
        d = tfn_sub(b, a)
    m, alpha, beta = d
    p0 = pref_value(model, m)
    return (p0, p0 - pref_value(model, m - alpha), pref_value(model, m + beta) - p0)


def pref_defuzz(model, a, b, method="centroid"):
    return tfn_defuzz(pref_fuzzy(model, a, b), method)


# ---------------------------------------------------------------------------
# Flat FlowSort on elementary criteria
# ---------------------------------------------------------------------------


def flatten(children, chain=()):
    """Elementary criteria of a nested tree, depth first.

    Each entry is ``(weight_chain, model)`` where ``weight_chain`` holds
    the child weights along the path from a first-level node down to the
    leaf; the product of the chain is the leaf's effective global weight.
    """
    flat = []
    for node in children:
        here = chain + (node["weight"],)
        if node.get("children"):
            flat.extend(flatten(node["children"], here))
        else:
            flat.append((here, node["model"]))
    return flat


def effective_weight(chain):
    w = 1.0
    for x in chain:
        w *= x
    return w


def pi_value(flat, row_a, row_b, method="centroid"):
    """Outranking degree of ``row_a`` over ``row_b`` as a flat weighted sum."""
    total = (0.0, 0.0, 0.0)
    for (chain, model), a, b in zip(flat, row_a, row_b):
        total = tfn_add(total, tfn_scale(effective_weight(chain), pref_fuzzy(model, a, b)))
    return tfn_defuzz(total, method)


def oracle_flows(flat, profiles, row, method="centroid"):
    """Flows of an alternative and of every profile against it.

    Returns ``(alt, prof)`` where ``alt`` is a (plus, minus, net) triple
    and ``prof`` a list of such triples, best profile first.  All flows
    average over the other members of the reference set {profiles, row},
    hence the common normalizer ``len(profiles)``.
    """
    c = len(profiles)
    plus = sum(pi_value(flat, row, r, method) for r in profiles) / c
    minus = sum(pi_value(flat, r, row, method) for r in profiles) / c
    alt = (plus, minus, plus - minus)
    prof = []
    for h in range(c):
        others = [r for g, r in enumerate(profiles) if g != h]
        pp = (sum(pi_value(flat, profiles[h], r, method) for r in others)
              + pi_value(flat, profiles[h], row, method)) / c
        pm = (sum(pi_value(flat, r, profiles[h], method) for r in others)
              + pi_value(flat, row, profiles[h], method)) / c
        prof.append((pp, pm, pp - pm))
    return alt, prof


def subtree_flows(flat, profiles, row, indices, method="centroid"):
    """Net flows restricted to the leaves listed in ``indices``.

    Chains are shortened by one link so the subtree root's own weight is
    left out, matching the single-criterion flow definition.
    """
    sub = [(flat[i][0][1:], flat[i][1]) for i in indices]

    def deg(ra, rb):
        total = (0.0, 0.0, 0.0)
        for (chain, model), i in zip(sub, indices):
            total = tfn_add(total, tfn_scale(effective_weight(chain),
                                             pref_fuzzy(model, ra[i], rb[i])))
        return tfn_defuzz(total, method)

    c = len(profiles)
    net = (sum(deg(row, r) for r in profiles) - sum(deg(r, row) for r in profiles)) / c
    prof = []
    for h in range(c):
        others = [r for g, r in enumerate(profiles) if g != h]
        val = (sum(deg(profiles[h], r) - deg(r, profiles[h]) for r in others)
               + deg(profiles[h], row) - deg(row, profiles[h])) / c
        prof.append(val)
    return net, prof


# ---------------------------------------------------------------------------
# Counting assignment rules
# ---------------------------------------------------------------------------


def assign_descending(alt_value, profile_values):
    """Category from flows that decrease with category index (plus or net)."""
    c = len(profile_values)
    if not (profile_values[0] >= alt_value > profile_values[c - 1]):
        return None
    return 1 + sum(1 for v in profile_values[1:] if v >= alt_value)


def assign_ascending(alt_value, profile_values):
    """Category from negative flows, which grow with category index."""
    c = len(profile_values)
    if not (profile_values[0] < alt_value <= profile_values[c - 1]):
        return None
    return sum(1 for v in profile_values[:-1] if v < alt_value)


def oracle_assignments(flat, profiles, row, method="centroid"):
    """(positive, negative, net) category indices, ``None`` when invalid."""
    alt, prof = oracle_flows(flat, profiles, row, method)
    by_plus = assign_descending(alt[0], [t[0] for t in prof])
    by_minus = assign_ascending(alt[1], [t[1] for t in prof])
    by_net = assign_descending(alt[2], [t[2] for t in prof])
    return by_plus, by_minus, by_net


# ---------------------------------------------------------------------------
# Randomized dominance-respecting instances
# ---------------------------------------------------------------------------

SPREAD_CAP = 0.3


def _random_model(rng, shapes):
    shape = rng.choice(shapes)
    model = {"shape": shape, "q": 0.0, "p": 0.0, "s": 0.0,
             "direction": rng.choice(["maximize", "minimize"])}
    if shape == "linear":
        model["q"] = rng.uniform(0.0, 0.4)
        model["p"] = model["q"] + rng.uniform(0.2, 1.2)
    elif shape == "v-shape":
        model["p"] = rng.uniform(0.2, 1.2)
    elif shape == "u-shape":
        model["q"] = rng.uniform(0.0, 0.4)
    elif shape == "gaussian":
        model["s"] = rng.uniform(0.2, 1.0)
    return model


def _random_children(rng, depth, force_deep, shapes):
    """A sibling list: dicts with weight, model or children."""
    n = rng.randint(2, 6) if depth <= 2 else rng.randint(2, 3)
    raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
    total = sum(raw)
    out = []
    deep_at = rng.randrange(n) if force_deep else -1
    for i in range(n):
        node = {"weight": raw[i] / total}
        go_deeper = depth > 1 and (i == deep_at or rng.random() < 0.6)
        if go_deeper:
            node["children"] = _random_children(rng, depth - 1, i == deep_at, shapes)
        else:
            node["model"] = _random_model(rng, shapes)
        out.append(node)
    return out


def random_instance(rng: random.Random, fuzzy=False, shapes=("usual", "linear"),
                    max_depth=None, n_categories=None):
    """A random sorting instance with strictly separated profiles.

    Profile modes step by more than p plus the widest possible spread
    overlap, so adjacent profiles reach full preference over each other
    and profile flows are strictly ordered regardless of the alternative.
    Evaluations stay inside the profile envelope with enough slack that
    every alternative strictly beats the worst profile somewhere.
    """
    depth = max_depth if max_depth is not None else rng.randint(2, 4)
    children = _random_children(rng, depth, True, shapes)
    flat = flatten(children)
    n_el = len(flat)
    k = n_categories if n_categories is not None else rng.randint(2, 5)
    m = rng.randint(2, 5)

    def spread():
        return rng.uniform(0.0, SPREAD_CAP) if fuzzy else 0.0

    profiles = []   # best first, rows of tuples
    bases, steps = [], []
    for chain, model in flat:
        base = rng.uniform(-5.0, 5.0)
        gap = model["p"] + 2 * SPREAD_CAP + rng.uniform(0.3, 1.0)
        bases.append(base)
        steps.append(gap)
    for level in range(k + 1):
        row = []
        for j, (chain, model) in enumerate(flat):
            offset = (k - level) * steps[j]     # best profile is farthest out
            value = bases[j] + offset if model["direction"] == "maximize" else bases[j] - offset
            row.append(tfn(value, spread(), spread()))
        profiles.append(row)

    evals = []
    for _ in range(m):
        row = []
        for j, (chain, model) in enumerate(flat):
            # stay clear of both envelope ends at support level: above the
            # worst profile by more than q, below the best profile outright
            lo = model["q"] + 2 * SPREAD_CAP + 0.1
            hi = k * steps[j] - (2 * SPREAD_CAP + 0.05)
            t = bases[j] + rng.uniform(lo, hi) * (1 if model["direction"] == "maximize" else -1)
            row.append(tfn(t, spread(), spread()))
        evals.append(row)

    return {
        "children": children,
        "flat": flat,
        "profiles": profiles,
        "evals": evals,
        "n_categories": k,
    }


def library_tree_spec(children, prefix="n"):
    """Translate a generator tree into the mapping form ``build_tree`` takes."""
    out = []
    for i, node in enumerate(children):
        label = f"{prefix}{i + 1}"
        entry = {"label": label}
        if node.get("children"):
            entry["children"] = library_tree_spec(node["children"], label)
            entry["weights"] = {
                "deterministic": [c["weight"] for c in node["children"]]
            }
        out.append(entry)
    return out


def library_root_weights(children):
    return {"deterministic": [c["weight"] for c in children]}


# ---------------------------------------------------------------------------
# Data draws, one value at a time
# ---------------------------------------------------------------------------
#
# A cell is ("fixed", (m, alpha, beta)), ("interval", lo, hi) or ("normal",
# mean, sd, lo, hi).  ``rng`` is a numpy Generator, used only through scalar
# ``uniform`` and ``normal`` calls: a call over an array draws the same
# floats in the same order, so these loops pin the random stream that the
# package's array samplers must keep.  A rejection redraws, round after
# round, the rows still rejected, in row order, for at most ``attempts``
# rounds.


class SamplingFailure(Exception):
    """A draw that cannot complete; its message is the package's."""


def draw_cell(rng, cell, bounds, attempts):
    """One value of a stochastic ``cell`` per (lo, hi) pair of ``bounds``,
    inside it: an interval by one clipped ``uniform`` call per value, a
    normal by rejection per row."""
    if cell[0] == "interval":
        _, lo, hi = cell
        for b_lo, b_hi in bounds:
            if max(lo, b_lo) > min(hi, b_hi):
                raise SamplingFailure(f"interval [{lo}, {hi}] cannot reach bounds [{b_lo}, {b_hi}]")
        return [rng.uniform(max(lo, b_lo), min(hi, b_hi)) for b_lo, b_hi in bounds]
    _, mean, sd, lo, hi = cell
    spans = [(max(lo, b_lo), min(hi, b_hi)) for b_lo, b_hi in bounds]
    out = [None] * len(bounds)
    pending = list(range(len(bounds)))
    for _ in range(attempts):
        rejected = []
        for r in pending:
            x = rng.normal(mean, sd)
            if spans[r][0] <= x <= spans[r][1]:
                out[r] = x
            else:
                rejected.append(r)
        pending = rejected
        if not pending:
            return out
    s_lo, s_hi = spans[pending[0]]
    raise SamplingFailure(f"normal({mean}, {sd}) produced no draw inside [{s_lo}, {s_hi}] "
                          f"after {attempts} attempts")


def _cell_rows(rng, cell, rows, attempts, bounds=None):
    """(m, alpha, beta) of ``cell`` for ``rows`` rows: a fixed cell as it
    is, a stochastic one drawn with zero spreads."""
    if cell[0] == "fixed":
        return [tuple(cell[1])] * rows
    free = [(-math.inf, math.inf)] * rows
    return [(x, 0.0, 0.0) for x in draw_cell(rng, cell, bounds or free, attempts)]


def profile_faults(column, maximize):
    """True where a profile column, (m, alpha, beta) levels best first,
    breaks the order: each mode strictly better than the next one's in the
    preference direction, and adjacent supports at most touching."""
    for better, worse in zip(column, column[1:]):
        upper, lower = (better, worse) if maximize else (worse, better)
        if upper[0] - lower[0] <= 0 or upper[0] - upper[1] < lower[0] + lower[2]:
            return True
    return False


def draw_profile_column(rng, column, maximize, slot, rows, attempts):
    """``rows`` draws of one profile column of cells, best level first,
    each column redrawn whole until it is ordered."""
    out = [None] * rows
    pending = list(range(rows))
    for _ in range(attempts):
        levels = [_cell_rows(rng, cell, len(pending), attempts) for cell in column]
        rejected = []
        for j, r in enumerate(pending):
            drawn = [level[j] for level in levels]
            if profile_faults(drawn, maximize):
                rejected.append(r)
            else:
                out[r] = drawn
        pending = rejected
        if not pending:
            return out
    raise SamplingFailure(f"no dominance-respecting profile draw on criterion {slot} "
                          f"after {attempts} attempts")


def draw_threshold_pair(rng, model, rows, attempts):
    """``rows`` draws of a model's q and p.  A ``level`` or ``linear``
    pair is redrawn whole until q <= p (q < p for ``linear``); a shape
    with one threshold draws q, then p."""
    def values(cell, n):
        return [f[0] for f in _cell_rows(rng, cell, n, attempts)]

    if model["shape"] not in ("level", "linear") or model["q"][0] == model["p"][0] == "fixed":
        return values(model["q"], rows), values(model["p"], rows)
    strict = model["shape"] == "linear"
    q, p = [None] * rows, [None] * rows
    pending = list(range(rows))
    for _ in range(attempts):
        qs, ps = values(model["q"], len(pending)), values(model["p"], len(pending))
        rejected = []
        for r, a, b in zip(pending, qs, ps):
            if a < b or (a == b and not strict):
                q[r], p[r] = a, b
            else:
                rejected.append(r)
        pending = rejected
        if not pending:
            return q, p
    need = "q < p" if strict else "q <= p"
    raise SamplingFailure(f"no admissible threshold pair ({need}) after {attempts} attempts")


def draw_data(rng, profiles, models, evaluations, rows, attempts=10_000):
    """``rows`` data draws of a problem, in the package's sampling order:
    each profile column with a stochastic level in criterion order, then
    each model's thresholds, then the evaluations alternative by
    alternative, criterion by criterion, each stochastic one inside the
    span of its criterion's drawn profiles.

    ``profiles`` holds (k+1, n) cells, best level first, ``models`` n
    dicts with ``shape``, ``direction``, ``q`` and ``p`` (cells), and
    ``evaluations`` (m, n) cells.  Returns ``q`` and ``p`` as (n, rows)
    lists, the evaluations as (rows, m, n, 3) and the profiles as (rows,
    k+1, n, 3).  Raises :class:`SamplingFailure` for the first value that
    cannot be drawn.
    """
    n = len(models)
    drawn = [[[tuple(cell[1]) if cell[0] == "fixed" else None for cell in level]
              for level in profiles] for _ in range(rows)]
    for t, model in enumerate(models):
        column = [level[t] for level in profiles]
        if all(cell[0] == "fixed" for cell in column):
            continue
        for r, levels in enumerate(draw_profile_column(
                rng, column, model["direction"] == "maximize", t, rows, attempts)):
            for h, f in enumerate(levels):
                drawn[r][h][t] = f
    q, p = zip(*(draw_threshold_pair(rng, model, rows, attempts) for model in models))
    spans = [[(min(level[t][0] - level[t][1] for level in draw),
               max(level[t][0] + level[t][2] for level in draw)) for t in range(n)]
             for draw in drawn]
    evals = [[[None] * n for _ in evaluations] for _ in range(rows)]
    for i, row in enumerate(evaluations):
        for t, cell in enumerate(row):
            bounds = [spans[r][t] for r in range(rows)]
            for r, f in enumerate(_cell_rows(rng, cell, rows, attempts, bounds)):
                evals[r][i][t] = f
    return list(q), list(p), evals, drawn
