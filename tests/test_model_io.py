"""Problem documents: parsing, validation errors, round-trips and reports."""

import copy
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from smaaflow import InputError, TFN, run_smaa
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
from smaaflow.model_io import (
    LinguisticScale,
    dump_problem,
    fixture_path,
    load_problem,
    parse_problem,
    problem_to_document,
    write_report,
)
from smaaflow.smaa import StochasticValue, deterministic_result

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
