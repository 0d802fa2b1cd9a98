"""Problem documents: parsing, validation errors, round-trips and reports."""

import copy
import csv
import hashlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smaaflow import InputError, SmaaFlowError, TFN, run_smaa
from smaaflow.errors import (
    EVALUATION_BOUNDS,
    IO,
    MISSING_EVALUATION,
    PROFILE_DOMINANCE,
    PROFILE_OVERLAP,
    SCHEMA,
    THRESHOLD,
    UNKNOWN_TERM,
    WEIGHT_SPEC,
)
from smaaflow.flows import ProfileSet
from smaaflow.model_io import (
    LinguisticScale,
    dump_problem,
    fixture_path,
    load_problem,
    parse_problem,
    problem_to_document,
    write_report,
)
from smaaflow.preference import PreferenceSpec
from smaaflow.smaa import ProblemRuntime, StochasticValue, deterministic_result

INVALID = Path(__file__).parent / "data" / "invalid"


# ---------------------------------------------------------------------------
# Parsing the bundled fixtures
# ---------------------------------------------------------------------------


def test_walkthrough_fixture_shape(walkthrough):
    assert walkthrough.n_categories == 2
    assert walkthrough.alternative_names == ("x1", "x2")
    assert walkthrough.tree.n_elementary == 4
    assert walkthrough.is_deterministic_data
    assert walkthrough.defaults.iterations == 10_000
    assert walkthrough.defaults.rule == "net"
    prefs = walkthrough.resolved_preferences()
    assert prefs[1].direction == "minimize"
    assert all(s.shape == "usual" for s in prefs)


def test_case_study_fixture_shape(case_study):
    assert case_study.n_categories == 4
    assert len(case_study.alternative_names) == 8
    assert case_study.tree.n_elementary == 54
    assert case_study.is_deterministic_data        # only the weights vary
    kinds = {g.parent_path: g.spec.kind for g in case_study.tree.sibling_groups()}
    assert kinds[()] == "ordinal"
    assert kinds[(1,)] == "deterministic"
    assert kinds[(1, 2)] == "ordinal"
    assert case_study.default_scale == "maturity"
    assert case_study.scales["maturity"].lookup("EM") == TFN(8, 0.75, 0)


def test_fixture_path_unknown_name():
    with pytest.raises(InputError):
        fixture_path("no-such-fixture")


# ---------------------------------------------------------------------------
# Value forms
# ---------------------------------------------------------------------------


def walkthrough_doc():
    return json.loads(fixture_path("walkthrough").read_text(encoding="utf-8"))


def doc_with_value(value):
    return {
        "schema": 1,
        "categories": ["good", "bad"],
        "tree": {"weights": {"deterministic": [1.0]},
                 "children": [{"label": "g"}]},
        "preferences": {"default": {"shape": "usual"}},
        "profiles": {"per_criterion": {"g": [10, 5, 0]}},
        "alternatives": {"a": {"g": value}},
    }


def test_value_forms_parse():
    assert parse_problem(doc_with_value(7)).evaluation_specs[0][0].kind == "crisp"
    fuzzy = parse_problem(doc_with_value({"tfn": [6, 1, 0.5]}))
    assert fuzzy.evaluation_specs[0][0].resolved() == TFN(6, 1, 0.5)
    interval = parse_problem(doc_with_value([4, 8]))
    assert interval.evaluation_specs[0][0].kind == "interval"
    assert not interval.is_deterministic_data
    normal = parse_problem(doc_with_value(
        {"normal": {"mean": 5, "sd": 1, "min": 2, "max": 8}}))
    assert normal.evaluation_specs[0][0].kind == "normal"


def test_linguistic_value_requires_scale():
    with pytest.raises(InputError) as err:
        parse_problem(doc_with_value("hi"))
    assert err.value.code == UNKNOWN_TERM


def test_scale_terms_must_be_monotone():
    with pytest.raises(InputError):
        LinguisticScale("s", (("a", TFN(0)), ("b", TFN(2)), ("c", TFN(1))))
    descending = LinguisticScale("s", (("a", TFN(2)), ("b", TFN(1)), ("c", TFN(0))))
    assert descending.lookup("b") == TFN(1)
    with pytest.raises(InputError) as err:
        descending.lookup("zzz")
    assert err.value.code == UNKNOWN_TERM


def test_fuzzy_threshold_rejected():
    doc = doc_with_value(7)
    doc["preferences"]["default"] = {"shape": "linear", "q": {"tfn": [1, 0.5, 0.5]},
                                     "p": 3}
    with pytest.raises(InputError) as err:
        parse_problem(doc)
    assert err.value.code == THRESHOLD


@pytest.mark.parametrize("preference", [
    {"shape": "u-shape", "q": {"normal": {"mean": 0, "sd": 1}}},
    {"shape": "v-shape", "p": [-2, 1]},
])
def test_stochastic_threshold_that_can_draw_negative_rejected(preference):
    doc = doc_with_value(7)
    doc["preferences"]["default"] = preference
    with pytest.raises(InputError) as err:
        parse_problem(doc)
    assert err.value.code == THRESHOLD


NAN, INF = float("nan"), float("inf")
X1_G11 = ("alternatives", "x1", "G1/g11")


def set_field(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


@pytest.mark.parametrize("keys, value, at", [
    (("tree", "children", 0, "weights"), {"deterministic": [NAN, 0.8]},
     "tree/children/0/weights"),
    (X1_G11, NAN, "alternatives/x1/G1/g11"),
    (("profiles", "per_criterion", "G1/g11", 1), NAN, "profiles/per_criterion/G1/g11/1"),
    (X1_G11, {"tfn": [8, NAN, 0]}, "alternatives/x1/G1/g11/tfn"),
    (X1_G11, {"normal": {"mean": NAN, "sd": 1}}, "alternatives/x1/G1/g11"),
    (X1_G11, {"normal": {"mean": 8, "sd": INF}}, "alternatives/x1/G1/g11"),
    (X1_G11, {"normal": {"mean": 8, "sd": 1, "min": "a"}}, "alternatives/x1/G1/g11"),
    (X1_G11, {"normal": {"mean": 8, "sd": 1, "min": None}}, "alternatives/x1/G1/g11"),
    (X1_G11, 10 ** 400, "alternatives/x1/G1/g11"),
], ids=["weight-nan", "crisp-nan", "profile-nan", "tfn-spread-nan", "normal-mean-nan",
        "normal-sd-infinity", "normal-min-string", "normal-min-null", "int-beyond-float"])
def test_numbers_must_be_finite(keys, value, at):
    # json.loads reads NaN and Infinity, so they reach the parser from files
    doc = walkthrough_doc()
    set_field(doc, keys, value)
    with pytest.raises(InputError) as err:
        parse_problem(doc)
    assert err.value.code == SCHEMA
    assert err.value.at == at


#: Stand-ins for one field of a problem document, each malformed somewhere.
MALFORMED = [None, True, -1, 0, 1.5, INF, -INF, NAN, 10 ** 400, "x", [], [1], [2, 1],
             [1, 2, 3], {}, {"a": 1}, {"ordinal": [INF, 1]},
             {"normal": {"mean": 5, "sd": 1, "min": "a"}}]


def field_paths(node, prefix=()):
    """Key path of every field under ``node``, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def test_every_load_failure_is_a_smaaflow_error():
    doc = walkthrough_doc()
    paths = list(field_paths(doc))
    assert len(paths) == 76
    crashes = []
    for keys in paths:
        for value in MALFORMED:
            bad = copy.deepcopy(doc)
            set_field(bad, keys, copy.deepcopy(value))
            try:
                parse_problem(bad)
            except SmaaFlowError:
                pass
            except Exception as exc:  # anything else escapes the error contract
                crashes.append(("/".join(map(str, keys)), repr(value), repr(exc)))
    assert crashes == []


MIXED_FORMS = Path(__file__).parent / "data" / "mixed_forms.json"


def mixed_forms_doc():
    """The walkthrough with crisp, term, tfn, interval and normal evaluations
    (normal with and without min/max), a tfn and an interval profile level
    and an interval q/p pair."""
    return json.loads(MIXED_FORMS.read_text(encoding="utf-8"))


def test_mixed_forms_document_holds_every_form():
    problem = parse_problem(mixed_forms_doc())
    kinds = {v.kind for row in problem.evaluation_specs for v in row}
    assert kinds == {"crisp", "linguistic", "fuzzy", "interval", "normal"}
    normals = [v for row in problem.evaluation_specs for v in row if v.kind == "normal"]
    assert {np.isfinite(v.lo) for v in normals} == {True, False}
    assert {v.kind for row in problem.profile_specs for v in row} == {"crisp", "fuzzy", "interval"}
    assert problem.preference_models[3].q == StochasticValue.interval(0.5, 1)
    assert problem.preference_models[3].p == StochasticValue.interval(2, 3)
    assert not problem.is_deterministic_data


def with_cells(doc, **changes):
    """``doc`` with ``alternatives`` rows, ``profiles`` columns or
    ``preferences`` entries replaced: ``x1={...}`` sets a row,
    ``x1__drop="G2/g22"`` deletes one of its cells, ``profile__G1__g12=[...]``
    sets a profile column and ``preference__G1__g12={...}`` a model."""
    doc = copy.deepcopy(doc)
    for key, value in changes.items():
        section, _, leaf = key.partition("__")
        if section in ("profile", "preference"):
            doc[section + "s"]["per_criterion"][leaf.replace("__", "/")] = value
        elif key.endswith("__drop"):
            del doc["alternatives"][key[:-len("__drop")]][value]
        else:
            doc["alternatives"][key] = value
    return doc


#: Documents with two faults each, and the code and location of the one
#: reported: always the first in document order.
TWO_FAULTS = {
    "nan-threshold-before-unknown-shape": (
        lambda: with_cells(mixed_forms_doc(), preference__G1__g12={"shape": "v-shape", "p": NAN},
                           preference__G2__g22={"shape": "bogus"}),
        SCHEMA, "preferences/per_criterion/G1/g12/p"),
    "nan-q-before-unused-p": (
        lambda: with_cells(mixed_forms_doc(), preference__G1__g12={"shape": "u-shape",
                                                                   "q": NAN, "p": 1}),
        SCHEMA, "preferences/per_criterion/G1/g12/q"),
    "bad-tfn-threshold-before-unknown-term": (
        lambda: with_cells(mixed_forms_doc(),
                           preference__G1__g12={"shape": "u-shape", "q": {"tfn": [1, -1, 0]}},
                           x1={"G1/g11": "top", "G1/g12": 1, "G2/g21": 8, "G2/g22": 14}),
        SCHEMA, "preferences/per_criterion/G1/g12/q/tfn"),
    "float-tfn-threshold-with-negative-spread": (
        lambda: with_cells(mixed_forms_doc(), preference__G1__g12={
            "shape": "u-shape", "q": {"tfn": [1.0, -0.5, 0.0]}, "p": 1}),
        SCHEMA, "preferences/per_criterion/G1/g12/q/tfn"),
    "float-tfn-infinite-spread-before-dominance": (
        lambda: with_cells(mixed_forms_doc(), profile__G1__g12=[0, {"tfn": [5.0, INF, 0.5]}, 10],
                           profile__G2__g22=[30, 35, 0]),
        SCHEMA, "profiles/per_criterion/G1/g12/1/tfn"),
    "key-order-float-tfn-negative-spread-before-nan": (
        lambda: with_cells(mixed_forms_doc(), x1={"G2/g22": {"tfn": [20.0, -1.0, 0.5]}, "G2/g21": 8,
                                                  "G1/g12": 2, "G1/g11": {"tfn": [5.0, NAN, 1.0]}}),
        SCHEMA, "alternatives/x1/G2/g22/tfn"),
    "dominance-in-column-1-nan-in-column-3": (
        lambda: with_cells(walkthrough_doc(), profile__G1__g12=[5, 5, 10],
                           profile__G2__g22=[30, NAN, 0]),
        PROFILE_DOMINANCE, "profiles/per_criterion/G1/g12"),
    "nan-in-column-1-dominance-in-column-3": (
        lambda: with_cells(walkthrough_doc(), profile__G1__g12=[0, NAN, 10],
                           profile__G2__g22=[30, 35, 0]),
        SCHEMA, "profiles/per_criterion/G1/g12/1"),
    "overlap-in-column-0-bad-spread-in-column-1": (
        lambda: with_cells(mixed_forms_doc(), profile__G1__g11=[10, {"tfn": [5, 0, 6]}, 0],
                           profile__G1__g12=[0, {"tfn": [5, -1, 0]}, 10]),
        PROFILE_OVERLAP, "profiles/per_criterion/G1/g11"),
    "out-of-envelope-in-row-0-missing-leaf-in-row-1": (
        lambda: with_cells(walkthrough_doc(), x1={"G1/g11": 11, "G1/g12": 1, "G2/g21": 16,
                                                  "G2/g22": 28}, x2__drop="G2/g22"),
        EVALUATION_BOUNDS, "alternatives/x1/G1/g11"),
    "missing-leaf-in-row-0-out-of-envelope-in-row-1": (
        lambda: with_cells(walkthrough_doc(), x1__drop="G2/g22",
                           x2={"G1/g11": 11, "G1/g12": 3, "G2/g21": 8, "G2/g22": 12}),
        MISSING_EVALUATION, "alternatives/x1"),
    "key-order-nan-before-out-of-envelope": (
        lambda: with_cells(walkthrough_doc(), x1={"G2/g22": NAN, "G1/g12": 1, "G2/g21": 16,
                                                  "G1/g11": 11}),
        SCHEMA, "alternatives/x1/G2/g22"),
    "key-order-out-of-envelope-before-bad-spread": (
        lambda: with_cells(walkthrough_doc(), x1={"G2/g22": 40, "G1/g12": 1, "G2/g21": 16,
                                                  "G1/g11": {"tfn": [8, -1, 0]}}),
        EVALUATION_BOUNDS, "alternatives/x1/G2/g22"),
    "key-order-out-of-envelope-before-unknown-term": (
        lambda: with_cells(mixed_forms_doc(), x2={"G2/g22": {"tfn": [40, 1, 1]}, "G2/g21": 8,
                                                  "G1/g12": 2, "G1/g11": "top"}),
        EVALUATION_BOUNDS, "alternatives/x2/G2/g22"),
    "key-order-unreachable-interval-before-nan-tfn": (
        lambda: with_cells(mixed_forms_doc(), x3={"G2/g22": [31, 32], "G2/g21": 8,
                                                  "G1/g12": 2, "G1/g11": {"tfn": [5, NAN, 1]}}),
        EVALUATION_BOUNDS, "alternatives/x3/G2/g22"),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULTS))
def test_first_of_two_faults_in_document_order(case):
    build, code, at = TWO_FAULTS[case]
    with pytest.raises(InputError) as err:
        parse_problem(build())
    assert (err.value.code, err.value.at) == (code, at)


def load_outcome(doc) -> tuple[str, str, str]:
    """(code, at, message) of loading ``doc``, all empty when it loads."""
    try:
        parse_problem(doc)
    except SmaaFlowError as err:
        return err.code, str(getattr(err, "at", None)), str(err)
    return "", "", ""


def test_load_errors_are_frozen():
    # every outcome of the walkthrough and mixed-forms sweeps and of the
    # two-fault documents, frozen as one sha256: any change of a code, a
    # location, a message or of which fault is reported moves it
    outcomes = []
    for doc in (walkthrough_doc(), mixed_forms_doc()):
        for keys in field_paths(doc):
            for value in MALFORMED:
                bad = copy.deepcopy(doc)
                set_field(bad, keys, copy.deepcopy(value))
                outcomes.append(("/".join(map(str, keys)), repr(value), *load_outcome(bad)))
    outcomes += [(case, "", *load_outcome(build())) for case, (build, _, _) in TWO_FAULTS.items()]
    assert len(outcomes) == (76 + 142) * len(MALFORMED) + len(TWO_FAULTS)
    text = "\n".join("\t".join(row) for row in sorted(outcomes))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9a5062892abf7b005d740c05c1324b6a481357a40cf0347893d973a24afdb84f")


POINT_NORMAL = {"normal": {"mean": 6, "sd": 1, "min": 6, "max": 6}}


@pytest.mark.parametrize("where", ["evaluation", "threshold"])
def test_normal_truncated_to_a_point_rejected(where):
    # a continuous draw never lands on [6, 6], so sampling could only fail
    doc = doc_with_value(POINT_NORMAL if where == "evaluation" else 7)
    if where == "threshold":
        doc["preferences"]["default"] = {"shape": "u-shape", "q": POINT_NORMAL}
    with pytest.raises(InputError) as err:
        parse_problem(doc)
    assert err.value.code == SCHEMA
    assert err.value.at == ("alternatives/a/g" if where == "evaluation"
                            else "preferences/default/q")


@pytest.mark.parametrize("preference, key", [
    ({"shape": "usual", "q": [0.1, 0.2]}, "q"),
    ({"shape": "v-shape", "q": [0.1, 0.2], "p": 2}, "q"),
    ({"shape": "gaussian", "s": 1, "p": {"normal": {"mean": 1, "sd": 0.5, "min": 0}}}, "p"),
], ids=["usual-q", "v-shape-q", "gaussian-p"])
def test_threshold_the_shape_does_not_read_rejected(preference, key):
    doc = doc_with_value(7)
    doc["preferences"]["default"] = preference
    with pytest.raises(InputError) as err:
        parse_problem(doc)
    assert err.value.code == THRESHOLD
    assert err.value.at.endswith(f"/{key}")


@pytest.mark.parametrize("preference", [
    {"shape": "linear", "q": [0.5, 1.0]},
    {"shape": "level", "q": [0.5, 1.0], "p": 0.2},
    {"shape": "linear", "q": [0.5, 1.0], "p": [0.2, 0.5]},
], ids=["linear-q-over-crisp-0", "level-q-over-crisp-p", "linear-q-touching-p"])
def test_unorderable_stochastic_threshold_pair_rejected(preference):
    # no draw of such a pair satisfies q <= p (q < p for linear), so
    # sampling could only stall; the spec is refused where it is written
    doc = doc_with_value(7)
    doc["preferences"]["default"] = preference
    with pytest.raises(InputError) as err:
        parse_problem(doc)
    assert err.value.code == THRESHOLD
    assert err.value.at == "preferences/default"


def test_overlapping_stochastic_threshold_pair_loads():
    doc = doc_with_value(7)
    doc["preferences"]["default"] = {"shape": "linear", "q": [0.5, 1.0], "p": [0.8, 2.0]}
    result = run_smaa(parse_problem(doc), iterations=64, seed=0)
    assert result.category_index.sum() == pytest.approx(1.0)


def two_level_doc(g1, g2, leaf):
    """Leaf ``g1`` and group ``G2`` over leaf ``g2``, with extra keys per node."""
    return {
        "schema": 1,
        "categories": ["good", "bad"],
        "scales": {"grade": {"terms": [["lo", [0, 0, 0]], ["hi", [10, 0, 0]]]}},
        "tree": {"weights": {"deterministic": [0.5, 0.5]}, "children": [
            {"label": "g1", **g1},
            {"label": "G2", "weights": {"deterministic": [1.0]},
             "children": [{"label": "g2", **leaf}], **g2},
        ]},
        "profiles": {"default": [10, 5, 0]},
        "alternatives": {"a": {"g1": 7, "G2/g2": 7}},
    }


@pytest.mark.parametrize("g1, g2, leaf, at", [
    ({"scale": "nope"}, {}, {}, "tree/children/0"),
    ({}, {}, {"scale": "nope"}, "tree/children/1/children/0"),
    ({}, {}, {"scale": 3}, "tree/children/1/children/0"),
    ({}, {"scale": "grade"}, {}, "tree/children/1"),
], ids=["unknown", "nested-unknown", "nested-not-a-name", "internal-node"])
def test_scale_binding_errors_name_the_node(g1, g2, leaf, at):
    parse_problem(two_level_doc({"scale": "grade"}, {}, {"scale": "grade"}))
    with pytest.raises(InputError) as err:
        parse_problem(two_level_doc(g1, g2, leaf))
    assert err.value.code == SCHEMA
    assert err.value.at == at


@pytest.mark.parametrize("profiles, criterion, at", [
    ({"per_criterion": {"G1/g11": [10, 5, 0], "G1/g12": [0, 5, 10],
                        "G2/g21": [20, 10, 0], "G2/g22": [30, 35, 0]}},
     "G2/g22", "profiles/per_criterion/G2/g22"),
    # the default column fails first on the first leaf that reads it
    ({"default": [0, 5, 10], "per_criterion": {"G1/g12": [0, 5, 10]}},
     "G1/g11", "profiles/default"),
], ids=["per-criterion", "default"])
def test_profile_column_errors_name_the_criterion(profiles, criterion, at):
    doc = walkthrough_doc()
    doc["profiles"] = profiles
    with pytest.raises(InputError) as err:
        parse_problem(doc)
    assert err.value.code == PROFILE_DOMINANCE
    assert err.value.at == at
    assert f"on criterion {criterion} (" in str(err.value)


@pytest.mark.parametrize("column, code", [
    ([10, 5, {"tfn": [1e308, 1e308, 1e308]}], PROFILE_DOMINANCE),
    ([{"tfn": [-1e308, 1e308, 1e308]}, 5, 0], PROFILE_DOMINANCE),
    ([{"tfn": [1e308, 0, 1e308]}, 5, 0], None),
], ids=["worst-level-overflows", "best-level-overflows", "envelope-overflows"])
def test_profile_support_overflow_does_not_warn(column, code):
    # a support end or difference beyond the float range is an infinity,
    # which still compares correctly
    doc = walkthrough_doc()
    doc["profiles"]["per_criterion"]["G1/g11"] = column
    profiles = ProfileSet([[TFN(*level["tfn"]) if isinstance(level, dict) else TFN(level)]
                           for level in column])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for load in (lambda: parse_problem(doc), lambda: profiles.validate([PreferenceSpec()])):
            if code is None:
                load()
                continue
            with pytest.raises(InputError) as err:
                load()
            assert err.value.code == code


@pytest.mark.parametrize("section", ["preferences", "profiles"])
@pytest.mark.parametrize("per_criterion", [[1], [], True, "G1/g11"])
def test_per_criterion_must_be_a_mapping(section, per_criterion):
    doc = walkthrough_doc()
    doc[section]["per_criterion"] = per_criterion
    with pytest.raises(InputError) as err:
        parse_problem(doc)
    assert err.value.code == SCHEMA
    assert err.value.at == f"{section}/per_criterion"


@pytest.mark.parametrize("section, at", [
    ("alternatives", "alternatives/x1/5"),
    ("preferences", "preferences/per_criterion/7"),
    ("profiles", "profiles/per_criterion/7"),
])
def test_criterion_keys_must_be_strings(section, at):
    # JSON keys are always strings, but a document built in Python need not be
    doc = walkthrough_doc()
    if section == "alternatives":
        doc["alternatives"]["x1"][5] = 8
    else:
        doc[section]["per_criterion"][7] = doc[section]["per_criterion"]["G1/g12"]
    with pytest.raises(InputError) as err:
        parse_problem(doc)
    assert err.value.code == SCHEMA
    assert err.value.at == at


# ---------------------------------------------------------------------------
# Invalid documents, one error code each
# ---------------------------------------------------------------------------

CASES = [
    ("profile_overlap.json", PROFILE_OVERLAP),
    ("profile_dominance.json", PROFILE_DOMINANCE),
    ("bad_ranks.json", WEIGHT_SPEC),
    ("weight_sum.json", WEIGHT_SPEC),
    ("missing_eval.json", MISSING_EVALUATION),
    ("unknown_term.json", UNKNOWN_TERM),
    ("eval_bounds.json", EVALUATION_BOUNDS),
    ("threshold.json", THRESHOLD),
    ("schema.json", SCHEMA),
    ("interval_weights.json", WEIGHT_SPEC),
    ("not_json.json", SCHEMA),
]


@pytest.mark.parametrize("filename, code", CASES)
def test_invalid_documents(filename, code):
    with pytest.raises(InputError) as err:
        load_problem(INVALID / filename)
    assert err.value.code == code


def test_missing_file_is_an_io_error(tmp_path):
    with pytest.raises(InputError) as err:
        load_problem(tmp_path / "absent.json")
    assert err.value.code == IO


def test_missing_evaluation_names_the_leaf():
    with pytest.raises(InputError) as err:
        load_problem(INVALID / "missing_eval.json")
    assert "quality" in str(err.value)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["walkthrough", "case-study"])
def test_document_round_trip_is_a_fixed_point(name):
    problem = load_problem(fixture_path(name))
    doc1 = problem_to_document(problem)
    doc2 = problem_to_document(parse_problem(doc1))
    assert doc1 == doc2


def test_dump_problem_is_loadable(tmp_path, walkthrough):
    target = tmp_path / "copy.json"
    target.write_text(dump_problem(walkthrough))
    again = load_problem(target)
    assert again.alternative_names == walkthrough.alternative_names
    assert again.evaluation_tfns("x1") == walkthrough.evaluation_tfns("x1")
    assert target.read_text().endswith("\n")


#: Leaves of the mixed-forms document; every profile envelope holds [0, 10].
LEAVES = ("G1/g11", "G1/g12", "G2/g21", "G2/g22")
GRADE = {"low": TFN(2, 1, 1), "mid": TFN(5, 1, 1), "high": TFN(8, 1, 1)}

number = st.one_of(st.integers(0, 10), st.floats(0, 10))
spread = st.one_of(st.integers(0, 1), st.floats(0, 1))
#: (raw cell, the value it stands for), one strategy per value form
cell_forms = st.one_of(
    number.map(lambda x: (x, StochasticValue.crisp(x))),
    st.sampled_from(sorted(GRADE)).map(
        lambda term: (term, StochasticValue.linguistic(term, GRADE[term]))),
    st.tuples(st.floats(1, 9), spread, spread).map(
        lambda t: ({"tfn": list(t)}, StochasticValue.fuzzy(TFN(*map(float, t))))),
    st.lists(number, min_size=2, max_size=2).map(sorted).map(
        lambda ends: (ends, StochasticValue.interval(*ends))),
    st.tuples(number, st.floats(0.1, 3), st.one_of(st.none(), st.floats(0, 4.9)),
              st.one_of(st.none(), st.floats(5, 10))).map(lambda n: (
        {"normal": {"mean": n[0], "sd": n[1],
                    **({} if n[2] is None else {"min": n[2]}),
                    **({} if n[3] is None else {"max": n[3]})}},
        StochasticValue.normal(n[0], n[1], -np.inf if n[2] is None else n[2],
                               np.inf if n[3] is None else n[3]))),
)
#: rows of (label path, (raw, value)) in the order the document lists them
alternative_rows = st.lists(
    st.tuples(st.permutations(LEAVES), st.lists(cell_forms, min_size=4, max_size=4)).map(
        lambda row: list(zip(row[0], row[1]))),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(alternative_rows)
def test_mixed_forms_round_trip_and_tables(rows):
    doc = mixed_forms_doc()
    doc["default_scale"] = "grade"  # terms on every leaf
    doc["alternatives"] = {f"a{i}": {path: raw for path, (raw, _) in row}
                           for i, row in enumerate(rows)}
    problem = parse_problem(doc)
    text = dump_problem(problem)
    assert dump_problem(parse_problem(json.loads(text))) == text

    slot = {path: t for t, path in enumerate(LEAVES)}
    want = [[None] * len(LEAVES) for _ in rows]
    for i, row in enumerate(rows):
        for path, (_, value) in row:
            want[i][slot[path]] = value
    assert problem.evaluation_specs == tuple(map(tuple, want))

    state = ProblemRuntime(problem, "net", "centroid", seed=0, strict=False)
    assert state.sampled_evals == tuple(
        (i, t, v) for i, row in enumerate(want) for t, v in enumerate(row)
        if not v.is_deterministic)
    for i, row in enumerate(want):
        for t, v in enumerate(row):
            f = v.resolved() if v.is_deterministic else TFN(0)
            assert state.fixed_evals[i, t].tolist() == [f.m, f.alpha, f.beta]


#: Cell faults, one per way a cell is rejected: a number that is not finite,
#: a negative spread, an empty interval and an unknown term.
CELL_FAULTS = [NAN, {"tfn": [5, -1, 0]}, [2, 1], "bogus"]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_first_of_two_cell_faults_in_reading_order(data):
    doc = mixed_forms_doc()
    rows = doc["alternatives"]
    for name, row in rows.items():
        rows[name] = {key: row[key] for key in data.draw(st.permutations(list(row)))}
    # every profile level and evaluation as (container, key, path), in reading order
    cells = [(doc["profiles"]["per_criterion"][leaf], h, f"profiles/per_criterion/{leaf}/{h}")
             for leaf in LEAVES for h in range(3)]
    cells += [(row, key, f"alternatives/{name}/{key}") for name, row in rows.items() for key in row]
    picked = sorted(data.draw(st.lists(st.integers(0, len(cells) - 1), min_size=2, max_size=2,
                                       unique=True)))
    faults = data.draw(st.lists(st.sampled_from(CELL_FAULTS), min_size=2, max_size=2))
    for p, fault in zip(picked, faults):
        container, key, _ = cells[p]
        container[key] = copy.deepcopy(fault)
    with pytest.raises(InputError) as err:
        parse_problem(doc)
    assert err.value.at == cells[picked[0]][2] + ("/tfn" if isinstance(faults[0], dict) else "")


def test_round_trip_preserves_stochastic_forms():
    doc = doc_with_value([4, 8])
    doc["tree"]["weights"] = {"interval": [[1.0, 1.0]]}
    problem = parse_problem(doc)
    rendered = problem_to_document(problem)
    assert rendered["alternatives"]["a"]["g"] == [4, 8]
    again = parse_problem(rendered)
    assert again.evaluation_specs[0][0] == StochasticValue.interval(4, 8)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_text_report_shows_percentages_and_final_category(walkthrough):
    res = deterministic_result(walkthrough)
    text = write_report(res, walkthrough, level="category", fmt="text")
    assert "x1" in text and "x2" in text
    assert "100" in text
    assert "C1" in text and "C2" in text


def test_text_report_star_marks_weak_winners(walkthrough):
    res = run_smaa(walkthrough, iterations=4, seed=0)
    weak = copy.deepcopy(res.category_index)
    weak[0] = [0.45, 0.55]
    res = type(res)(
        categories=res.categories, alternatives=res.alternatives,
        category_index=weak, node_paths=res.node_paths,
        node_index=res.node_index, iterations=res.iterations,
        seed=res.seed, rule=res.rule, defuzz=res.defuzz,
        boundary_violations=res.boundary_violations)
    starred = write_report(res, walkthrough, level="category", fmt="text",
                           threshold=0.6)
    assert "*" in starred


def test_percentages_use_largest_remainder(walkthrough):
    res = run_smaa(walkthrough, iterations=3, seed=0)
    thirds = np.array([[1 / 3, 1 / 3, 1 / 3]])
    from smaaflow.model_io import _percentages

    assert sum(_percentages(thirds[0])) == 100
    assert sorted(_percentages(thirds[0])) == [33, 33, 34]
    assert _percentages(res.category_index[0]) == [100, 0]


def _row_percentages(row):
    """The largest-remainder rule one row at a time, as a reference."""
    scaled = row * 100.0
    floors = np.floor(scaled).astype(int)
    short = int(np.rint(scaled.sum())) - int(floors.sum())
    if short > 0:
        floors[np.argsort(-(scaled - floors), kind="stable")[:short]] += 1
    return floors.tolist()


def _row_assigned(categories, row, threshold):
    """The assignment label one row at a time, as a reference."""
    if row.sum() <= 0:
        return "n/a"
    best = int(np.argmax(row))
    return categories[best] if row[best] >= threshold else f"{categories[best]}*"


def _rowwise(stack, categories, threshold):
    return ([[_row_percentages(row) for row in alt] for alt in stack],
            [[_row_assigned(categories, row, threshold) for row in alt] for alt in stack])


@pytest.mark.parametrize("k", [2, 5, 9])
def test_report_helpers_match_the_row_rules(k):
    from smaaflow.model_io import _assigned, _percentages

    rng = np.random.default_rng(k)
    categories = [f"C{h + 1}" for h in range(k)]
    for draws in (1, 3, 7, 50, 256, 10_000):
        # tallies of `draws` iterations over 6 alternatives x 30 nodes; a
        # cell draws its categories from a skewed split, and some draws go
        # unbracketed, so some rows sum below 1 and some to 0
        split = rng.dirichlet(np.full(k, 0.3), size=(6, 30))
        bracketed = rng.integers(0, draws + 1, size=(6, 30))
        bracketed[rng.random((6, 30)) < 0.6] = draws
        counts = np.stack([[rng.multinomial(n, p) for n, p in zip(ns, ps)]
                           for ns, ps in zip(bracketed, split)])
        stack = counts / draws
        for threshold in (0.0, 0.5, float(rng.random())):
            pct, best = _rowwise(stack, categories, threshold)
            assert _percentages(stack) == pct
            assert _assigned(categories, stack, threshold) == best


def test_report_helpers_on_ties_short_rows_and_the_threshold():
    from smaaflow.model_io import _assigned, _percentages

    rows = [[1 / 3] * 3, [1 / 4] * 4, [1 / 7] * 7, [2 / 7, 2 / 7, 3 / 7], [1 / 6] * 6,
            [0.125] * 8, [0.2, 0.3], [0.0, 0.0], [0.5, 0.5], [0.4, 0.6], [0.6, 0.4],
            [1 / 3, 0.0, 2 / 3], [0.005, 0.995], [0.015, 0.985]]
    k = max(len(r) for r in rows)
    stack = np.array([r + [0.0] * (k - len(r)) for r in rows])
    categories = [f"C{h + 1}" for h in range(k)]
    for threshold in (0.0, 0.5, 0.6):
        pct, best = _rowwise(stack[None], categories, threshold)
        assert _percentages(stack) == pct[0]
        assert _assigned(categories, stack, threshold) == best[0]
    assert _percentages(stack[0]) == [34, 33, 33, 0, 0, 0, 0, 0]
    assert _percentages(stack[2])[:7] == [15, 15, 14, 14, 14, 14, 14]
    labels = _assigned(categories, stack, 0.5)
    assert labels[6] == "C2*" and labels[7] == "n/a"
    # a best value equal to the threshold is not starred
    assert labels[8] == "C1" and _assigned(categories, stack[9], 0.6) == "C2"


def test_csv_report_structure(walkthrough):
    res = deterministic_result(walkthrough)
    out = write_report(res, walkthrough, level="all-nodes", fmt="csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["alternative", "node", "C1", "C2", "assigned"]
    # one overall row plus six node rows per alternative
    assert len(rows) == 1 + 2 * 7
    overall = rows[1]
    assert overall[0] == "x1" and overall[1] == "overall"
    assert float(overall[2]) == 1.0 and overall[4] == "C1"


def test_csv_first_level_only_lists_first_level_nodes(walkthrough):
    res = deterministic_result(walkthrough)
    out = write_report(res, walkthrough, level="first-level", fmt="csv")
    nodes = {row[1] for row in list(csv.reader(io.StringIO(out)))[1:]}
    assert nodes == {"overall", "G1", "G2"}


def test_report_rejects_unknown_level_and_format(walkthrough):
    res = deterministic_result(walkthrough)
    with pytest.raises(ValueError):
        write_report(res, walkthrough, level="everything")
    with pytest.raises(ValueError):
        write_report(res, walkthrough, fmt="yaml")


def test_reports_are_deterministic(walkthrough):
    res = run_smaa(walkthrough, iterations=50, seed=1)
    a = write_report(res, walkthrough, level="all-nodes", fmt="csv")
    res2 = run_smaa(walkthrough, iterations=50, seed=1)
    b = write_report(res2, walkthrough, level="all-nodes", fmt="csv")
    assert a == b
