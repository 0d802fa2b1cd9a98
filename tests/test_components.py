"""Pair components of many data draws at once.

``BatchEngine.pref_components`` hands its kernel pass a chunk of draws at
a time, and each pass broadcasts the pairs of every leaf over its draws.
These tests pin the result to one-draw calls bit for bit, to the flat
oracle within 1e-12 on every leaf, to table digests computed with the
earlier one-call-per-draw engine and, on real problems, with the engine
before it took the leaves in shape order, and the tables kept under each
rule to the matching blocks of all three.  The step shapes' table lookups
match the elementwise kernel at their breakpoints.  Chunks hold ``CHUNK``
draws here, whatever the byte budget would give these small instances,
except in the real problems' digests.
"""

import dataclasses
import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from smaaflow import build_tree, flows
from smaaflow.flows import CHUNK_BYTES, BatchEngine, chunk_draws
from smaaflow.fuzzy import DEFUZZ_METHODS
from smaaflow.model_io import load_problem, parse_problem
from smaaflow.preference import SHAPES, STEPS, PreferenceArrays
from smaaflow.smaa import BLOCK, ProblemRuntime, iteration_rng

import oracles
from conftest import library_objects

#: Data draws per chunk in these tests, as on the case study.
CHUNK = 16

#: Data draws per test instance: more than one chunk, and not a multiple of it.
DRAWS = 35


@pytest.fixture(autouse=True)
def fixed_chunk(monkeypatch):
    monkeypatch.setattr(flows, "chunk_draws", lambda n_el, m, c: CHUNK)


def test_chunk_draws_fit_the_byte_budget():
    # the unpatched function, on (n_el, m, c) of the case study and of a
    # problem of synthetic-wide's size, whose one draw exceeds the budget
    assert chunk_draws(54, 8, 5) == CHUNK
    assert chunk_draws(192, 40, 6) == 1
    for n_el, m, c in ((54, 8, 5), (3, 4, 2), (1, 1, 2), (60, 12, 9)):
        step = chunk_draws(n_el, m, c)
        assert step * 24 * n_el * (2 * m * c + c * c) <= CHUNK_BYTES


def draw_inputs(seed: int, n_profiles: int, draws: int):
    """A random oracle instance over all six shapes with fuzzy data, and
    ``draws`` data draws of it.

    Each draw scales every criterion's ``q`` and ``p`` by one factor,
    shifts every mode and scales every spread; alternative 0 equals
    profile 2 on every leaf of every draw, so exact ties occur.  Returns
    the tree, the preference specs of every draw, their arrays with
    (n_el, draws) thresholds, the (draws, m, n_el, 3) evaluations and the
    (draws, c, n_el, 3) profiles.
    """
    inst = oracles.random_instance(random.Random(seed), fuzzy=True, shapes=SHAPES,
                                   n_categories=n_profiles - 1)
    tree, _, specs, _, _ = library_objects(inst)
    gen = np.random.default_rng(seed)
    scale = gen.uniform(0.5, 1.5, (len(specs), draws))
    q = np.array([s.q for s in specs])[:, None] * scale
    p = np.array([s.p for s in specs])[:, None] * scale

    def jitter(rows):
        rows = np.array(rows, dtype=float)
        out = np.repeat(rows[None], draws, axis=0)
        out[..., 0] += gen.uniform(-0.2, 0.2, out.shape[:-1])
        out[..., 1:] *= gen.uniform(0.5, 1.5, out.shape[:-1] + (2,))
        return out

    evals, profiles = jitter(inst["evals"]), jitter(inst["profiles"])
    evals[:, 0] = profiles[:, 1]
    per_draw = [[dataclasses.replace(s, q=q[t, j], p=p[t, j]) for t, s in enumerate(specs)]
                for j in range(draws)]
    return tree, per_draw, PreferenceArrays.of(specs, thresholds=(q, p)), evals, profiles


def chunked_tables(seed, n_profiles, defuzz):
    """The engine, the per-draw inputs and the chunked leaf tables of
    :func:`draw_inputs`."""
    tree, per_draw, prefs, evals, profiles = draw_inputs(seed, n_profiles, DRAWS)
    engine = BatchEngine(tree, evals.shape[1], n_profiles)
    return engine, per_draw, evals, profiles, engine.pref_components(prefs, evals, profiles,
                                                                     defuzz)


@pytest.mark.parametrize("n_profiles", [2, 5, 9])
@pytest.mark.parametrize("seed", range(3))
def test_chunked_components_equal_one_draw_calls(seed, n_profiles):
    assert DRAWS > CHUNK and DRAWS % CHUNK  # the last chunk is a partial one
    for defuzz in DEFUZZ_METHODS:
        engine, per_draw, evals, profiles, tables = chunked_tables(seed, n_profiles, defuzz)
        assert tables.shape == (DRAWS, 3 * engine.n_pairs, evals.shape[2])
        for j in range(DRAWS):
            one = engine.pref_components(per_draw[j], evals[j], profiles[j], defuzz)
            assert np.array_equal(tables[j], one), (defuzz, j)


@pytest.mark.parametrize("n_profiles", [2, 5, 9])
@pytest.mark.parametrize("kept", ["some", "all", "none"])
def test_fixed_profile_sums_equal_one_draw_calls(n_profiles, kept, monkeypatch):
    # leaves that keep their profiles and thresholds across the block get
    # their profile-versus-profile sums once, from the first draw, and the
    # others once per window of as many draws as fit CHUNK_BYTES: as set,
    # and on a budget of 6 draws, whose windows cross the chunk edges.  The
    # tables still equal one call per draw, bit for bit.  Under "some", half
    # the leaves keep their profiles and a quarter their thresholds too
    # (shapes without q and p keep theirs at 0 anyway).
    tree, per_draw, prefs, evals, profiles = draw_inputs(11, n_profiles, DRAWS)
    n_el = evals.shape[2]
    every = np.arange(n_el)
    keep_profiles, keep_thresholds = {"some": (every % 2 == 0, every % 4 == 0),
                                      "all": (every >= 0,) * 2, "none": (every < 0,) * 2}[kept]
    profiles[:, :, keep_profiles] = profiles[:1, :, keep_profiles]
    evals[:, 0] = profiles[:, 1]
    q, p = (np.where(keep_thresholds[:, None], v[:, :1], v) for v in (prefs.q, prefs.p))
    prefs = prefs._replace(q=q, p=p)
    keep = keep_profiles & (q == q[:, :1]).all(1) & (p == p[:, :1]).all(1)
    assert kept != "some" or 0 < keep.sum() < keep_profiles.sum()
    per_draw = [[dataclasses.replace(s, q=q[t, j], p=p[t, j]) for t, s in enumerate(specs)]
                for j, specs in enumerate(per_draw)]
    sized = []
    real = flows._profile_pair_sums

    def counted(prefs, r, defuzz):
        sized.append(r.shape[2:])  # (leaves, draws)
        return real(prefs, r, defuzz)

    monkeypatch.setattr(flows, "_profile_pair_sums", counted)
    engine = BatchEngine(tree, evals.shape[1], n_profiles)
    fixed, varying = int(keep.sum()), int(n_el - keep.sum())
    # bytes of the profile pairs' points of the varying leaves, per draw
    per_draw_bytes = 3 * 8 * n_profiles ** 2 * max(1, varying)
    for budget in (CHUNK_BYTES, 6 * per_draw_bytes):
        monkeypatch.setattr(flows, "CHUNK_BYTES", budget)
        window = budget // per_draw_bytes
        for defuzz in DEFUZZ_METHODS:
            del sized[:]
            tables = engine.pref_components(prefs, evals, profiles, defuzz)
            # (leaves, draws) summed: the kept leaves once for the block, the
            # others once per window (either may be none)
            assert sized == [(fixed, 1)] + [(varying, min(window, DRAWS - j))
                                             for j in range(0, DRAWS, window)]
            for j in range(DRAWS):
                one = engine.pref_components(per_draw[j], evals[j], profiles[j], defuzz)
                assert np.array_equal(tables[j], one), (defuzz, window, j)


ROOT = Path(__file__).resolve().parent.parent


def named_problem(name, monkeypatch):
    """A benchmark workload at seed 0 by name, or else a problem of
    ``tests/data``, its file stem spelt with hyphens."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    if name in workloads.WORKLOADS:
        return parse_problem(workloads.WORKLOADS[name](0))
    return load_problem(ROOT / "tests" / "data" / f"{name.replace('-', '_')}.json")


@pytest.mark.parametrize("name", ["case-study-interval", "mixed-forms"])
def test_rule_tables_are_blocks_of_all_tables(name, monkeypatch):
    # the tables a rule keeps are the matching blocks of all three, bit for
    # bit, and only those are held: n_pairs columns per leaf under net,
    # 2 * n_pairs under positive or negative, 3 * n_pairs with no rule
    problem = named_problem(name, monkeypatch)
    state = ProblemRuntime(problem, "net", "centroid", seed=0, strict=False)
    data = state._sample_data(iteration_rng(0, 0), DRAWS)
    n, n_el = state.engine.n_pairs, data[1].shape[2]
    for defuzz in DEFUZZ_METHODS:
        full = BatchEngine(problem.tree, state.m, state.c).pref_components(*data, defuzz)
        assert full.shape == (DRAWS, 3 * n, n_el)
        for rule, kept in ((None, (0, 1, 2)), ("net", (0,)), ("positive", (0, 1)),
                           ("negative", (0, 2))):
            engine = BatchEngine(problem.tree, state.m, state.c, rule)
            tables = engine.pref_components(*data, defuzz)
            assert tables.shape == (DRAWS, len(kept) * n, n_el)
            assert tables.base.nbytes == DRAWS * len(kept) * n * n_el * 8
            want = np.concatenate([full[:, t * n:(t + 1) * n] for t in kept], axis=1)
            assert np.array_equal(tables.view(np.int64), want.view(np.int64)), (defuzz, rule)


@pytest.mark.parametrize("n_profiles", [2, 5, 9])
def test_chunked_leaf_flows_match_the_oracle(n_profiles):
    for defuzz in DEFUZZ_METHODS:
        engine, per_draw, evals, profiles, tables = chunked_tables(7, n_profiles, defuzz)
        m, c, n = engine.m, engine.c, engine.n_pairs
        gap = 0.0
        for j in (0, DRAWS - 1):
            for t, spec in enumerate(per_draw[j]):
                flat = [((1.0,), dataclasses.asdict(spec))]
                prof = [[tuple(profiles[j, h, t])] for h in range(c)]
                for i in range(m):
                    alt, prof_flows = oracles.oracle_flows(flat, prof, [tuple(evals[j, i, t])],
                                                           defuzz)
                    # blocks of n rows: net, positive, negative; in each, the
                    # alternative then the profiles of its reference set
                    for block, k in ((0, 2), (1, 0), (2, 1)):
                        rows = tables[j, block * n + i * (c + 1):][: c + 1, t]
                        want = [alt[k]] + [f[k] for f in prof_flows]
                        gap = max(gap, float(np.abs(rows - want).max()))
        assert gap <= 1e-12


#: sha256 of ``(tables + 0.0).tobytes()`` for (seed, profiles, defuzz),
#: computed with one ``pref_components`` call per draw before the draws were
#: chunked; ``+ 0.0`` folds -0.0 into 0.0.  With 9 profiles numpy sums the
#: profile axis pairwise, so a layout change that moves those floats shows.
FROZEN_DIGESTS = {
    (0, 2, "centroid"): "988c1294917743d14c1f459c399465b333f6e90998b6fc9de1ce84e6c9757d66",
    (1, 9, "centroid"): "b5d162bfeaf086c35f9468e75f7d140f85a1f9a057b7677d304868cd14b34070",
    (7, 9, "spread-sum"): "1e25ddc32ff210dc5a8946bc7c5ef86ce30dfc2eb754e6a7dd77e6e405f677fb",
}


@pytest.mark.parametrize("seed, n_profiles, defuzz", sorted(FROZEN_DIGESTS))
def test_chunked_tables_match_frozen_digests(seed, n_profiles, defuzz):
    tables = chunked_tables(seed, n_profiles, defuzz)[-1]
    digest = hashlib.sha256((tables + 0.0).tobytes()).hexdigest()
    assert digest == FROZEN_DIGESTS[seed, n_profiles, defuzz]


def breakpoint_inputs():
    """Leaves of the three step shapes and a linear one, shapes interleaved,
    whose points against profile 2 sit exactly at 0, -0.0, +-q and +-p or
    one ulp to either side, in draws with thresholds of their own.

    Profile 2 is crisp 0 on every leaf, so a pair's points (d, d - s_l,
    d + s_r) are the alternative's mode and support ends, dyadic values
    that subtract exactly.  Thresholds come from 0.5, 1.0 and 1.25 and the
    floats next to them: the level leaf runs through every q <= p pair,
    q == p included, the u-shape leaf through every q.  Profiles 1 and 3
    (8 and -8) keep the profile flows ordered.  Returns the tree and the
    (prefs, evals, profiles) of :meth:`BatchEngine.pref_components`.
    """
    values = sorted({f(v) for v in (0.5, 1.0, 1.25)
                     for f in (float, lambda v: np.nextafter(v, 0.0),
                               lambda v: np.nextafter(v, np.inf))})
    pairs = [(q, p) for q in values for p in values if q <= p]
    draws = len(pairs)
    shapes = ["level", "usual", "linear", "u-shape", "usual"]
    tree = build_tree([{"label": f"c{t}"} for t in range(len(shapes))],
                      {"deterministic": [0.2] * len(shapes)})
    q, p = np.zeros((2, len(shapes), draws))
    q[0], p[0] = np.array(pairs).T
    q[2], p[2] = np.array(pairs).T[0], np.array(pairs).T[0] + 1.0
    q[3] = [values[j % len(values)] for j in range(draws)]
    prefs = PreferenceArrays(np.array([SHAPES.index(x) for x in shapes]), q, p,
                             np.zeros(len(shapes)), np.ones(len(shapes), dtype=bool))
    crisp = [(m, 0.0, 0.0) for m in (0.0, -0.0, 5e-324, -5e-324)]
    crisp += [(sign * v, 0.0, 0.0) for v in values for sign in (1.0, -1.0)]
    fuzzy = [(1.0, 0.5, 0.25), (-1.0, 0.25, 0.5), (0.5, 0.5, 0.75), (0.0, 0.5, 0.5),
             (-0.0, 1.0, 1.25)]
    evals = np.broadcast_to(np.array(crisp + fuzzy)[None, :, None],
                            (draws, len(crisp + fuzzy), len(shapes), 3))
    profiles = np.broadcast_to(np.array([(8.0, 0.0, 0.0), (0.0, 0.0, 0.0), (-8.0, 0.0, 0.0)])
                               [None, :, None], (draws, 3, len(shapes), 3))
    return tree, prefs, evals, profiles


@pytest.mark.parametrize("rule", [None, "net", "positive", "negative"])
def test_step_shapes_at_their_breakpoints_match_the_kernel(rule, monkeypatch):
    # the step-shape table lookups give the elementwise kernel's tables bit
    # for bit (with the step shapes taken out of STEPS, every leaf runs the
    # kernel), and the points reach every state of every step leaf
    tree, prefs, evals, profiles = breakpoint_inputs()
    x = evals[:, :, :, 0]
    # the points against profile 2, (3, m, n_el, draws)
    points = np.moveaxis(np.stack([x, x - evals[..., 1], x + evals[..., 2]]), 1, -1)
    for t in np.flatnonzero(np.isin(prefs.codes, [SHAPES.index(x) for x in STEPS])):
        leaf = points[..., t:t + 1, :]
        counts = prefs.select([t]).add_step_counts(leaf, np.zeros(leaf.shape, dtype=np.intp))
        assert np.unique(counts).size == 2 * len(STEPS[SHAPES[prefs.codes[t]]](0, 0)) + 1
    engine = BatchEngine(tree, evals.shape[1], profiles.shape[1], rule)
    for defuzz in DEFUZZ_METHODS:
        looked_up = engine.pref_components(prefs, evals, profiles, defuzz)
        with monkeypatch.context() as patch:
            patch.setattr(flows, "STEPS", {})
            kernel = engine.pref_components(prefs, evals, profiles, defuzz)
        assert np.array_equal(looked_up.view(np.int64), kernel.view(np.int64)), defuzz


#: sha256 of ``(tables + 0.0).tobytes()`` for (problem, rule, defuzz), from
#: ``pref_components`` with the byte budget's chunks, computed with the
#: engine that ran one shape kernel call per run of same-shape neighbouring
#: leaves, before it took the leaves in shape order: block 0 of the interval
#: case study under every rule; the one-draw static tables of synthetic-wide,
#: whose shapes alternate leaf by leaf; and block 0 of eight_categories.json,
#: whose nine profiles make numpy sum the profile axis pairwise.
LAYOUT_DIGESTS = {
    ("case-study-interval", None, "centroid"):
        "5fce18bb3af364da3ef71922719e883253a2a6667c6b007a4a1ec4a8a100a419",
    ("case-study-interval", None, "spread-sum"):
        "d2374c04c252ba415595b96541b80c7005baad521f2504f846474443aef74e28",
    ("case-study-interval", "net", "centroid"):
        "73d4262021cffc8ea5d7a9d347faac8e91da527095ac45b77a54623d5fa95e37",
    ("case-study-interval", "net", "spread-sum"):
        "fbc58f5d85f6e5e27599704ab50ee13287ea36b0d2deeff8f103403345657043",
    ("case-study-interval", "positive", "centroid"):
        "d8a179bbd63d122d0e709c18b288b5a50939d61655a8a3d1dc62620180fa2064",
    ("case-study-interval", "positive", "spread-sum"):
        "45bef02008bc51d022d2a0e35c6d86a7b882083063898a5795492c531b36ffdc",
    ("case-study-interval", "negative", "centroid"):
        "9295b61e12bdebdd512155d9fc373350d6d9a10fc8865d8fe984fc8ca599231d",
    ("case-study-interval", "negative", "spread-sum"):
        "b58c509d7167bf6ec762e3218fc2eb5960781f53f994b82a0f9ca7112a9c94e1",
    ("synthetic-wide", None, "centroid"):
        "4950938a99a6c2e4cae3736e0d8690adc7766b81d2030b2c90f667c433a882b7",
    ("synthetic-wide", None, "spread-sum"):
        "b17e8443c1ce96c72574b8a005eb4f1b802a15359ba067d907537d3b6c1c2154",
    ("eight-categories", None, "centroid"):
        "ee65ad3021d53e8adc2c4f7c02aee8b917ede1da62c4421b3edb6889bb530fa3",
    ("eight-categories", None, "spread-sum"):
        "0747d3029baf98efad699c47c7d19c7d8fe60ce6737d8c5df6eedc96f88437fb",
}


@pytest.mark.parametrize("name, rule, defuzz", sorted(LAYOUT_DIGESTS, key=str))
def test_real_layouts_match_frozen_digests(name, rule, defuzz, monkeypatch):
    monkeypatch.setattr(flows, "chunk_draws", chunk_draws)
    problem = named_problem(name, monkeypatch)
    state = ProblemRuntime(problem, "net", defuzz, seed=0, strict=False)
    size = 1 if problem.is_deterministic_data else BLOCK
    data = state._sample_data(iteration_rng(0, 0), size)
    tables = BatchEngine(problem.tree, state.m, state.c, rule).pref_components(*data, defuzz)
    digest = hashlib.sha256((tables + 0.0).tobytes()).hexdigest()
    assert digest == LAYOUT_DIGESTS[name, rule, defuzz]


def _bits(x: np.ndarray) -> np.ndarray:
    """The bits of ``x + 0.0`` (-0.0 folded into 0.0), as int64."""
    return (x + 0.0).view(np.int64)


@pytest.mark.parametrize("draws", [1, 16])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 128, 129, 136, 300])
def test_profile_sums_follow_numpy(n, draws):
    # every branch of _sum_profiles (one by one below 8 values; from 8,
    # numpy's eight running sums, and its halving past 128) on strided
    # views, bit for bit against numpy's own sums: pairwise over a
    # contiguous profile axis, one by one over a strided one
    gen = np.random.default_rng(1000 * n + draws)
    shape = (2, n, 3, 2 * draws)
    a = gen.standard_normal(shape) * 10.0 ** gen.integers(-8, 9, shape)
    a = a.swapaxes(1, 2)[..., ::2]  # (2, 3, n, draws), strided on every axis
    want = np.ascontiguousarray(np.moveaxis(a, -2, -1)).sum(-1)
    assert np.array_equal(_bits(flows._sum_profiles(a, axis=-2)), _bits(want))
    if draws > 1:  # one draw leaves numpy a contiguous axis, which it sums pairwise
        strided = flows._sum_profiles(a, axis=-2, pairwise=False)
        assert np.array_equal(_bits(strided), _bits(a.sum(axis=-2)))
