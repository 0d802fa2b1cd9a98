"""Outranking degrees, flows and the three assignment rules.

The numeric expectations below are frozen from hand calculation on the
bundled two-level walkthrough fixture: two alternatives, two categories,
three limiting profiles, usual-shape preferences, weights
(0.3, 0.7) over (0.2, 0.8) and (0.4, 0.6).
"""

import numpy as np
import pytest

from smaaflow import (
    TFN,
    BoundaryViolation,
    InputError,
    PreferenceSpec,
    ProfileSet,
    alternative_flows,
    assign,
    assignments,
    build_tree,
    flow_bundle,
    outranking_degree,
    profile_flows,
    run_smaa,
    single_criterion_assignment,
    single_criterion_flows,
)
from smaaflow.errors import PROFILE_DOMINANCE, PROFILE_OVERLAP
from smaaflow.flows import RULES, FlowBundle, FlowTriple, InvariantError, bracket

from conftest import unchecked_tables


@pytest.fixture(scope="module")
def walkthrough_parts(walkthrough):
    tree = walkthrough.tree
    return {
        "tree": tree,
        "weights": tree.deterministic_weights(),
        "prefs": walkthrough.resolved_preferences(),
        "profiles": walkthrough.resolved_profile_set(),
        "x1": walkthrough.evaluation_tfns("x1"),
        "x2": walkthrough.evaluation_tfns("x2"),
    }


def test_outranking_degrees(walkthrough_parts):
    w = walkthrough_parts
    levels = w["profiles"].levels
    args = (w["tree"], w["weights"], w["prefs"])

    def pi(a, b):
        return outranking_degree(*args, a, b)

    assert pi(w["x1"], levels[0]) == pytest.approx(0.0, abs=1e-12)
    assert pi(w["x1"], levels[1]) == pytest.approx(1.0, abs=1e-12)
    assert pi(w["x1"], levels[2]) == pytest.approx(1.0, abs=1e-12)
    assert pi(w["x2"], levels[1]) == pytest.approx(0.3, abs=1e-12)
    assert pi(levels[1], w["x2"]) == pytest.approx(0.7, abs=1e-12)


def test_alternative_flows_frozen(walkthrough_parts):
    w = walkthrough_parts
    f1 = alternative_flows(w["tree"], w["weights"], w["prefs"], w["profiles"], w["x1"])
    assert f1.plus == pytest.approx(2 / 3, abs=1e-12)
    assert f1.minus == pytest.approx(1 / 3, abs=1e-12)
    assert f1.net == pytest.approx(1 / 3, abs=1e-12)

    f2 = alternative_flows(w["tree"], w["weights"], w["prefs"], w["profiles"], w["x2"])
    assert f2.plus == pytest.approx(1.3 / 3, abs=1e-12)
    assert f2.minus == pytest.approx(1.7 / 3, abs=1e-12)
    assert f2.net == pytest.approx(-0.4 / 3, abs=1e-12)


def test_profile_flows_frozen(walkthrough_parts):
    w = walkthrough_parts
    p1 = profile_flows(w["tree"], w["weights"], w["prefs"], w["profiles"], w["x1"])
    assert [t.net for t in p1] == pytest.approx([1.0, -1 / 3, -1.0], abs=1e-12)

    p2 = profile_flows(w["tree"], w["weights"], w["prefs"], w["profiles"], w["x2"])
    assert [t.net for t in p2] == pytest.approx([1.0, 0.4 / 3, -1.0], abs=1e-12)
    assert [t.plus for t in p2] == pytest.approx([1.0, 1.7 / 3, 0.0], abs=1e-12)
    assert [t.minus for t in p2] == pytest.approx([0.0, 1.3 / 3, 1.0], abs=1e-12)


def test_assignments_frozen(walkthrough_parts):
    w = walkthrough_parts
    args = (w["tree"], w["weights"], w["prefs"], w["profiles"])
    a1 = assignments(flow_bundle(*args, w["x1"]))
    assert (a1.by_positive, a1.by_negative, a1.by_net) == (1, 1, 1)
    a2 = assignments(flow_bundle(*args, w["x2"]))
    assert (a2.by_positive, a2.by_negative, a2.by_net) == (2, 2, 2)


def test_single_criterion_flows_frozen(walkthrough_parts):
    w = walkthrough_parts
    args = (w["tree"], w["weights"], w["prefs"], w["profiles"])
    expected = {
        (1,): (1 / 3, [1.0, -1 / 3, -1.0], 1),
        (2,): (-1 / 3, [1.0, 1 / 3, -1.0], 2),
        (2, 1): (-1 / 3, [1.0, 1 / 3, -1.0], 2),
        (2, 2): (-1 / 3, [1.0, 1 / 3, -1.0], 2),
    }
    for path, (net, prof, cat) in expected.items():
        sc = single_criterion_flows(*args, w["x2"], path)
        assert sc.net == pytest.approx(net, abs=1e-12)
        assert list(sc.profile_net) == pytest.approx(prof, abs=1e-12)
        assert single_criterion_assignment(sc) == cat


def test_decomposition_identity(walkthrough_parts):
    w = walkthrough_parts
    args = (w["tree"], w["weights"], w["prefs"], w["profiles"])
    for x in (w["x1"], w["x2"]):
        overall = alternative_flows(*args, x).net
        parts = sum(
            w["weights"][node.path] * single_criterion_flows(*args, x, node.path).net
            for node in w["tree"].first_level
        )
        assert overall == pytest.approx(parts, abs=1e-12)


# ---------------------------------------------------------------------------
# Assignment rule mechanics on a one-criterion model
# ---------------------------------------------------------------------------


def one_criterion(levels, x):
    tree = build_tree([{"label": "g"}], {"deterministic": [1.0]})
    weights = tree.deterministic_weights()
    prefs = [PreferenceSpec(shape="usual")]
    profiles = ProfileSet([[TFN(v)] for v in levels])
    return flow_bundle(tree, weights, prefs, profiles, [TFN(x)])


def test_tie_with_profile_flow_lands_in_upper_category():
    # x coincides with the middle profile, so its net flow ties that
    # profile's.  The bracketing rule puts it in the category the profile
    # tops, category 2 of [2, 1, 0].
    bundle = one_criterion([2.0, 1.0, 0.0], 1.0)
    assert bundle.alternative.net == pytest.approx(0.0)
    assert bundle.profiles[1].net == pytest.approx(0.0)
    assert assign(bundle, "net") == 2
    assert assign(bundle, "positive") == 2


def test_above_best_profile_is_a_boundary_violation():
    bundle = one_criterion([2.0, 1.0, 0.0], 5.0)
    with pytest.raises(BoundaryViolation):
        assign(bundle, "net")
    with pytest.raises(BoundaryViolation):
        assign(bundle, "positive")


def test_matching_worst_profile_is_a_net_violation_but_not_negative():
    # an alternative glued to the worst profile ties its net flow, which
    # breaks the strict lower bracket of the net and positive rules; the
    # negative rule tolerates the tie and files it in the last category
    bundle = one_criterion([2.0, 1.0, 0.0], 0.0)
    with pytest.raises(BoundaryViolation):
        assign(bundle, "net")
    with pytest.raises(BoundaryViolation):
        assign(bundle, "positive")
    assert assign(bundle, "negative") == 2


def test_four_category_bracketing():
    for x, cat in [(3.5, 1), (2.5, 2), (1.5, 3), (0.5, 4)]:
        bundle = one_criterion([4.0, 3.0, 2.0, 1.0, 0.0], x)
        assert assign(bundle, "net") == cat
        assert assign(bundle, "negative") == cat


def old_bracket(alt, prof, rule):
    """The bracket rule table as one (..., k) block of comparisons summed
    over its short axis, as it was before it counted column by column."""
    if rule == "negative":
        valid = (alt > prof[..., 0]) & (alt <= prof[..., -1])
        return (prof[..., :-1] < alt[..., None]).sum(axis=-1), valid
    valid = (alt <= prof[..., 0]) & (alt > prof[..., -1])
    return 1 + (prof[..., 1:] >= alt[..., None]).sum(axis=-1), valid


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("rule", RULES)
def test_bracket_counts_columns_like_the_summed_block(k, rule):
    # flows drawn from a few values, so alternatives tie profiles exactly,
    # with +0.0 against -0.0 and nan on either side: the column-by-column
    # count gives the categories and mask of the summed block, as intp
    rng = np.random.default_rng(100 * k + RULES.index(rule))
    values = np.array([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, np.nan])
    prof = np.sort(rng.choice(values, (3, 40, 5, k + 1)), axis=-1)
    if rule != "negative":
        prof = prof[..., ::-1]
    prof[rng.random(prof.shape) < 0.05] = rng.choice(values)
    alt = rng.choice(values, (3, 40, 5))
    cat, valid = bracket(alt, prof, rule)
    want_cat, want_valid = old_bracket(alt, prof, rule)
    assert cat.dtype == np.intp and cat.shape == alt.shape
    assert np.array_equal(cat, want_cat) and np.array_equal(valid, want_valid)
    # the one flow of _assign_one
    for a, p in zip(alt.reshape(-1)[:50], prof.reshape(-1, k + 1)):
        got, ok = bracket(np.float64(a), p, rule)
        want, want_ok = old_bracket(np.float64(a), p, rule)
        assert (int(got), bool(ok)) == (int(want), bool(want_ok))


def test_unknown_rule_rejected(walkthrough, walkthrough_parts, monkeypatch):
    import json

    from smaaflow import smaa
    from smaaflow.flows import BatchEngine, tfn_matrix
    from smaaflow.model_io import fixture_path, parse_problem

    w = walkthrough_parts
    bundle = flow_bundle(w["tree"], w["weights"], w["prefs"], w["profiles"], w["x1"])
    engine = BatchEngine(w["tree"], 1, 3)
    data = (tfn_matrix(w["x1"])[None], np.array([tfn_matrix(r) for r in w["profiles"].levels]))
    comp = engine.pref_components(w["prefs"], *data, "centroid")
    weight_row = np.array([[w["weights"][n.path] for n in w["tree"].nodes]])
    bf = engine.flows(comp, weight_row)
    # with stochastic data the components are drawn in the pool's workers;
    # an unknown option must fail in the caller before the first draw
    with open(fixture_path("walkthrough")) as fh:
        doc = json.load(fh)
    doc["alternatives"]["x1"]["G1/g11"] = [7, 9]
    stochastic = parse_problem(doc)

    def no_draws(seed, index):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(smaa, "iteration_rng", no_draws)
    for call in (lambda: assign(bundle, "median"),
                 lambda: run_smaa(walkthrough, iterations=10, rule="median"),
                 lambda: engine.assign_overall(bf, "median"),
                 lambda: run_smaa(walkthrough, iterations=10, defuzz="median"),
                 lambda: run_smaa(stochastic, iterations=2 * smaa.BLOCK, threads=2,
                                  rule="median"),
                 lambda: run_smaa(stochastic, iterations=2 * smaa.BLOCK, threads=2,
                                  defuzz="median"),
                 lambda: smaa.deterministic_result(walkthrough, rule="median"),
                 lambda: smaa.deterministic_result(walkthrough, defuzz="median"),
                 lambda: engine.pref_components(w["prefs"], *data, "median"),
                 # no rule builds all three tables, for single evaluations only
                 lambda: run_smaa(stochastic, iterations=10, rule=None),
                 lambda: smaa.deterministic_result(walkthrough, rule=None),
                 # counts and seeds must be integers, and no bool
                 lambda: run_smaa(stochastic, iterations=10, seed=1.5),
                 lambda: run_smaa(stochastic, iterations=300.0),
                 lambda: run_smaa(stochastic, iterations=2 * smaa.BLOCK, threads=2.0),
                 # and there is at least one worker
                 lambda: run_smaa(stochastic, iterations=2 * smaa.BLOCK, threads=0),
                 lambda: run_smaa(stochastic, iterations=2 * smaa.BLOCK, threads=-3),
                 lambda: run_smaa(stochastic, iterations=True)):
        with pytest.raises(ValueError):
            call()


def test_unordered_profile_flows_trip_the_invariant():
    bundle = FlowBundle(
        alternative=FlowTriple(0.5, 0.5, 0.0),
        profiles=(FlowTriple(0.2, 0.8, -0.6), FlowTriple(0.9, 0.1, 0.8)),
    )
    with pytest.raises(InvariantError):
        assign(bundle, "net")


def test_engine_trips_the_invariant_on_an_unordered_leaf(monkeypatch):
    # profiles reach the engine directly, past load-time validation; the
    # second leaf lists them worst first, but its small weight keeps the
    # whole-tree flows ordered, so only the per-leaf check can object, and
    # a one-draw pref_components call raises its text under every rule,
    # naming the worst step that its builder hands back with the refused tables
    from smaaflow.flows import BatchEngine

    tree = build_tree([{"label": "a"}, {"label": "b"}], {"deterministic": [0.99, 0.01]})
    engine = BatchEngine(tree, 1, 3)
    prefs = [PreferenceSpec(shape="usual")] * 2
    profiles = np.array([[[2.0, 0, 0], [0.0, 0, 0]],
                         [[1.0, 0, 0], [1.0, 0, 0]],
                         [[0.0, 0, 0], [2.0, 0, 0]]])
    evals = np.array([[[1.5, 0, 0], [1.5, 0, 0]]])
    comp = unchecked_tables(engine, prefs, evals, profiles)
    bf = engine.flows(comp, np.array([[0.99, 0.01]]))
    assert (np.diff(bf.root["net"].prof, axis=-1) < 0).all()
    assert (np.diff(bf.root["positive"].prof, axis=-1) < 0).all()
    assert (np.diff(bf.root["negative"].prof, axis=-1) > 0).all()
    with pytest.raises(InvariantError, match="net profile flows") as want:
        engine.check_ordering(comp)
    for rule in (None, *RULES):
        ruled = BatchEngine(tree, 1, 3, rule)
        tables, worst = ruled._build_tables(prefs, evals, profiles, "centroid")
        with pytest.raises(InvariantError) as err:
            ruled.pref_components(prefs, evals, profiles, "centroid")
        assert str(err.value) == str(want.value) == (
            f"net profile flows are not non-increasing (worst step {worst[0]})"), rule
        with monkeypatch.context() as unchecked:
            unchecked.setattr("smaaflow.flows._check_steps", lambda steps: None)
            assert np.array_equal(ruled.pref_components(prefs, evals, profiles, "centroid"), tables)


def hand_built_leaves(table, columns):
    """Leaf tables (3 * n_pairs, 2) of one alternative and three profiles
    on two leaves: both ordered, except that the second leaf's profile
    columns of ``table`` (1 positive, 2 negative) are ``columns``."""
    ordered = np.array([[0.0, 0.5, 0.0, -0.5],    # net: alternative, r1, r2, r3
                        [0.5, 0.8, 0.5, 0.2],     # positive, falling
                        [0.5, 0.3, 0.5, 0.8]])    # negative, rising
    second = ordered.copy()
    second[table, 1:] = columns
    return np.stack([ordered.ravel(), second.ravel()], axis=1)


@pytest.mark.parametrize("table, columns, rule", [
    (1, [0.2, 0.5, 0.8], "positive"),
    (2, [0.8, 0.5, 0.3], "negative"),
])
def test_engine_checks_each_leaf_table(table, columns, rule):
    # one leaf's positive (or negative) profile flows run the wrong way
    # while its net flows and the whole tree's flows stay ordered: only
    # the leaf check of that table can object
    from smaaflow.flows import BatchEngine

    tree = build_tree([{"label": "a"}, {"label": "b"}], {"deterministic": [0.99, 0.01]})
    engine = BatchEngine(tree, 1, 3)
    comp = hand_built_leaves(table, columns)
    bf = engine.flows(comp, np.array([[0.99, 0.01]]))
    assert (np.diff(bf.root["net"].prof, axis=-1) < 0).all()
    assert (np.diff(bf.root["positive"].prof, axis=-1) < 0).all()
    assert (np.diff(bf.root["negative"].prof, axis=-1) > 0).all()
    assert (np.diff(bf.nodes[0].prof, axis=-1) < 0).all()
    with pytest.raises(InvariantError, match=f"{rule} profile flows"):
        engine.check_ordering(comp)
    comp[:, 1] = comp[:, 0]
    engine.check_ordering(comp)


def fuzzy_draws(count: int):
    """An engine over two linear leaves, two alternatives and three
    profiles, and ``count`` random fuzzy data draws of it, (prefs, evals,
    profiles) leading with the draw axis.  Profile modes are ordered best
    first, but spreads are drawn freely, so some draws leave one leaf table
    unordered, and some another."""
    from smaaflow.flows import BatchEngine
    from smaaflow.preference import PreferenceArrays

    tree = build_tree([{"label": "a"}, {"label": "b"}], {"deterministic": [0.5, 0.5]})
    gen = np.random.default_rng(0)

    def tfns(shape):
        out = np.empty(shape + (3,))
        out[..., 0] = gen.uniform(0, 10, shape)
        out[..., 1:] = gen.uniform(0, 4, shape + (2,))
        return out

    evals, profiles = tfns((count, 2, 2)), tfns((count, 3, 2))
    profiles[..., 0] = np.sort(profiles[..., 0], axis=1)[:, ::-1]
    prefs = PreferenceArrays.of([PreferenceSpec(shape="linear", q=0.5, p=3.0)] * 2,
                                thresholds=(np.full((2, count), 0.5), np.full((2, count), 3.0)))
    return BatchEngine(tree, 2, 3), prefs, evals, profiles


def ordering_fault(engine, tables):
    """The message of :meth:`check_ordering` on ``tables``, or None."""
    try:
        engine.check_ordering(tables)
    except InvariantError as err:
        return str(err)
    return None


@pytest.mark.parametrize("late", [6, 9], ids=["middle-chunk", "last-chunk"])
@pytest.mark.parametrize("table", ["net", "positive", "negative"])
def test_block_path_checks_each_leaf_table(table, late, monkeypatch):
    # the block path of test_engine_checks_each_leaf_table: ten draws in
    # chunks of 4, a small fault of one table in the first chunk and a
    # larger one at draw ``late``, in the middle chunk or the last, partial
    # one.  Under each rule the block raises the text that check_ordering
    # gives on the tables that rule keeps: the worst step of the later
    # chunk, not the first one found nor the last chunk's, when it keeps the
    # faulty table; a rule that does not keep it runs.
    from smaaflow import flows

    monkeypatch.setattr(flows, "chunk_draws", lambda n_el, m, c: 4)
    engine, prefs, evals, profiles = fuzzy_draws(400)
    tables = unchecked_tables(engine, prefs, evals, profiles)
    faults = [ordering_fault(engine, tables[j]) for j in range(400)]
    ordered = [j for j, fault in enumerate(faults) if fault is None]
    hits = sorted((float(fault.rsplit(" ", 1)[1][:-1]), j) for j, fault in enumerate(faults)
                  if fault is not None and fault.startswith(table + " "))
    (small, first), (large, last) = hits[0], hits[-1]
    assert len(ordered) >= 8 and large > small > 1e-9
    block = [ordered[0], first, *ordered[1:9]]
    block[late] = last

    def data(rows):
        return (prefs._replace(q=prefs.q[:, rows], p=prefs.p[:, rows]), evals[rows],
                profiles[rows])

    tables, n = unchecked_tables(engine, *data(block)), engine.n_pairs
    assert ordering_fault(engine, tables) == faults[last] != faults[first]
    for rule, kept in ((None, (0, 1, 2)), ("net", (0,)), ("positive", (0, 1)),
                       ("negative", (0, 2))):
        ruled = flows.BatchEngine(engine.tree, engine.m, engine.c, rule)
        blocks = np.concatenate([tables[:, t * n:(t + 1) * n] for t in kept], axis=1)
        want = ordering_fault(ruled, blocks)
        faulty = ("net", "positive", "negative").index(table) in kept
        assert want == (faults[last] if faulty else None), rule
        if want is None:
            ruled.pref_components(*data(block), "centroid")
        else:
            with pytest.raises(InvariantError) as err:
                ruled.pref_components(*data(block), "centroid")
            assert str(err.value) == want, rule
        ruled.pref_components(*data(ordered[:10]), "centroid")


def random_leaf(gen):
    """A random valid one-leaf problem: a preference spec of any shape and
    direction, a fuzzy alternative inside the profile envelope, (1, 1, 3),
    and 3 to 7 fuzzy profile levels, (c, 1, 3) best first, that pass
    :func:`check_profile_column`.  Adjacent supports touch half the time;
    profile modes and spreads are multiples of 1/64, so their ends add up
    exactly."""
    from smaaflow.flows import check_profile_column
    from smaaflow.preference import DIRECTIONS, SHAPES, THRESHOLDS

    shape, direction = SHAPES[gen.integers(6)], DIRECTIONS[gen.integers(2)]
    t = gen.uniform(0.01, 3.0)
    given = {"q": gen.uniform(0.0, t), "p": t, "s": t}
    if THRESHOLDS[shape] == ("q",):
        given["q"] = t
    spec = PreferenceSpec(shape=shape, direction=direction,
                          **{name: given[name] for name in THRESHOLDS[shape]})
    # oriented levels, worst first, each support starting where the last ends or later
    rows, right = np.empty((gen.integers(3, 8), 3)), 0.0
    for h in range(len(rows)):
        alpha, beta = gen.integers(1, 129, 2) / 64
        rows[h] = right + gen.integers(0, 65) / 64 * (gen.random() < 0.5) + alpha, alpha, beta
        right = rows[h, 0] + beta
    alt = np.array([gen.uniform(rows[0, 0] - rows[0, 1], right), *gen.uniform(0.0, 2.0, 2)])
    if direction == "minimize":
        rows, alt = rows[:, [0, 2, 1]] * (-1, 1, 1), alt[[0, 2, 1]] * (-1, 1, 1)
    check_profile_column(rows[::-1], direction, 0)
    return spec, alt[None, None], rows[::-1, None]


def test_centroid_leaf_tables_are_always_ordered():
    # the bracketing premise under centroid: a centroid degree averages
    # P(d), P(d - s_l) and P(d + s_r), each non-decreasing and 0 at d <= 0,
    # and validated profiles do not overlap, so no valid problem trips the
    # profile-order check.  Spread-sum weighs one point negatively, and the
    # same problems do trip it, which shows the generator reaches the check.
    from smaaflow.flows import BatchEngine

    tree = build_tree([{"label": "a"}], {"deterministic": [1.0]})
    engines = {c: BatchEngine(tree, 1, c) for c in range(3, 8)}
    gen = np.random.default_rng(0)
    stops = {"centroid": 0, "spread-sum": 0}
    for _ in range(1000):
        spec, evals, profiles = random_leaf(gen)
        for defuzz in stops:
            try:
                engines[len(profiles)].pref_components([spec], evals, profiles, defuzz)
            except InvariantError:
                stops[defuzz] += 1
    assert stops["centroid"] == 0 and stops["spread-sum"] > 0, stops


# ---------------------------------------------------------------------------
# Profile validation
# ---------------------------------------------------------------------------


def test_profile_modes_must_strictly_decrease():
    prefs = [PreferenceSpec(shape="usual")]
    profiles = ProfileSet([[TFN(5)], [TFN(5)], [TFN(0)]])
    with pytest.raises(InputError) as err:
        profiles.validate(prefs)
    assert err.value.code == PROFILE_DOMINANCE


def test_profile_supports_may_touch_but_not_overlap():
    prefs = [PreferenceSpec(shape="usual")]
    touching = ProfileSet([[TFN(10, 2, 0)], [TFN(8, 0, 0)], [TFN(0)]])
    touching.validate(prefs)

    overlapping = ProfileSet([[TFN(10, 3, 0)], [TFN(8, 0, 0)], [TFN(0)]])
    with pytest.raises(InputError) as err:
        overlapping.validate(prefs)
    assert err.value.code == PROFILE_OVERLAP


def test_minimized_criterion_reverses_dominance():
    prefs = [PreferenceSpec(shape="usual", direction="minimize")]
    ProfileSet([[TFN(0)], [TFN(5)], [TFN(10)]]).validate(prefs)
    with pytest.raises(InputError):
        ProfileSet([[TFN(10)], [TFN(5)], [TFN(0)]]).validate(prefs)


def test_defuzz_method_is_threaded_through(walkthrough_parts):
    w = walkthrough_parts
    # crisp data: both defuzzification conventions must agree exactly
    a = alternative_flows(w["tree"], w["weights"], w["prefs"], w["profiles"],
                          w["x1"], defuzz="spread-sum")
    assert a.net == pytest.approx(1 / 3, abs=1e-12)


def test_flows_against_raw_batch_arrays(walkthrough_parts):
    # cross-check the single-evaluation wrappers with raw engine arrays
    from smaaflow.flows import BatchEngine, tfn_matrix

    w = walkthrough_parts
    tree = w["tree"]
    evals = np.array([tfn_matrix(w["x1"]), tfn_matrix(w["x2"])])
    profs = np.array([tfn_matrix(r) for r in w["profiles"].levels])
    engine = BatchEngine(tree, 2, 3)
    comp = engine.pref_components(w["prefs"], evals, profs, "centroid")
    weight_row = np.array([[w["weights"][n.path] for n in tree.nodes]])
    bf = engine.flows(comp, weight_row)
    engine.check_ordering(comp)

    net = bf.root["positive"].alt[0] - bf.root["negative"].alt[0]
    assert net == pytest.approx([1 / 3, -0.4 / 3], abs=1e-12)
    cats, valid = engine.assign_overall(bf, "net")
    assert valid.all()
    assert list(cats[0]) == [1, 2]


def test_engine_reads_only_its_rules_tables(walkthrough_parts):
    # an engine built for a rule takes only tables of its own row count,
    # and brackets the whole tree only by a table it builds; positive and
    # negative tables hold as many rows, so they are not told apart
    from smaaflow.flows import BatchEngine, tfn_matrix

    w = walkthrough_parts
    data = (w["prefs"], tfn_matrix(w["x1"])[None],
            np.array([tfn_matrix(r) for r in w["profiles"].levels]))
    weight_row = np.array([[w["weights"][n.path] for n in w["tree"].nodes]])
    engines = {rule: BatchEngine(w["tree"], 1, 3, rule) for rule in (None, *RULES)}
    tables = {rule: engine.pref_components(*data, "centroid") for rule, engine in engines.items()}
    for rule, engine in engines.items():
        for comp in tables.values():
            if len(comp) == len(tables[rule]):
                continue
            with pytest.raises(ValueError, match=f"that rule {rule!r} reads"):
                engine.node_values(comp, weight_row)
            with pytest.raises(ValueError, match=f"that rule {rule!r} reads"):
                engine.flows(comp, weight_row)
            with pytest.raises(ValueError, match=f"that rule {rule!r} reads"):
                engine.check_ordering(comp)
        bf = engine.flows(tables[rule], weight_row)
        assert sorted(bf.root) == sorted(engine.tables)
        for read in RULES:
            if read in engine.tables:
                engine.assign_overall(bf, read)
            else:
                with pytest.raises(ValueError, match=f"no whole-tree {read} flows"):
                    engine.assign_overall(bf, read)


def test_folded_fixed_rows_give_the_leaf_tables_values(walkthrough_parts):
    # the fixed nodes' rows folded once, as a static run keeps them, give
    # node_values every float the leaf tables give, and a table of any
    # other column count is rejected rather than read short
    from smaaflow.flows import BatchEngine, tfn_matrix

    w = walkthrough_parts
    engine = BatchEngine(w["tree"], 1, 3, "net")
    comp = engine.pref_components(w["prefs"], tfn_matrix(w["x1"])[None],
                                  np.array([tfn_matrix(r) for r in w["profiles"].levels]),
                                  "centroid")
    weight_rows = np.repeat([[w["weights"][n.path] for n in w["tree"].nodes]], 3, axis=0)
    rows = engine.fold_fixed(comp, weight_rows[:1])
    assert rows.shape == (comp.shape[0], comp.shape[1] + len(engine.fixed_inner))
    assert engine.fixed_inner and np.array_equal(rows[:, :comp.shape[1]], comp)
    (want_groups, want_root), (got_groups, got_root) = (engine.node_values(c, weight_rows)
                                                        for c in (comp, rows))
    for want, got in zip((*want_groups, want_root), (*got_groups, got_root)):
        assert want.tobytes() == got.tobytes()
    with pytest.raises(ValueError, match="columns are neither"):
        engine.node_values(comp[:, 1:], weight_rows)
