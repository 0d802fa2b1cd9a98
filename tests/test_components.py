"""Pair components of many data draws at once.

``BatchEngine.pref_components`` hands its kernel pass a chunk of draws at
a time, and each pass broadcasts the pairs of every leaf over its draws.
These tests pin the result to one-draw calls bit for bit, to the flat
oracle within 1e-12 on every leaf, and to table digests computed with the
earlier one-call-per-draw engine, and the tables kept under each rule to
the matching blocks of all three; chunks hold ``CHUNK`` draws here,
whatever the byte budget would give these small instances.
"""

import dataclasses
import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from smaaflow import flows
from smaaflow.flows import CHUNK_BYTES, BatchEngine, chunk_draws
from smaaflow.fuzzy import DEFUZZ_METHODS
from smaaflow.model_io import load_problem, parse_problem
from smaaflow.preference import SHAPES, PreferenceArrays
from smaaflow.smaa import ProblemRuntime, iteration_rng

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
        sized.append(r.shape[::3])
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


@pytest.mark.parametrize("name", ["case-study-interval", "mixed-forms"])
def test_rule_tables_are_blocks_of_all_tables(name, monkeypatch):
    # the tables a rule keeps are the matching blocks of all three, bit for
    # bit, and only those are held: n_pairs columns per leaf under net,
    # 2 * n_pairs under positive or negative, 3 * n_pairs with no rule
    root = Path(__file__).resolve().parent.parent
    if name == "mixed-forms":
        problem = load_problem(root / "tests" / "data" / "mixed_forms.json")
    else:
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        import workloads

        problem = parse_problem(workloads.case_study_interval(0))
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
    assert np.array_equal(_bits(flows._sum_profiles(a)), _bits(want))
    if draws > 1:  # one draw leaves numpy a contiguous axis, which it sums pairwise
        strided = flows._sum_profiles(a, pairwise=False)
        assert np.array_equal(_bits(strided), _bits(a.sum(axis=-2)))
