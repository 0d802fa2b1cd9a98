"""Criteria tree construction, traversal tables and weight specifications."""

import pytest

from smaaflow import InputError, WeightSpec, build_tree
from smaaflow.errors import SCHEMA, WEIGHT_SPEC


def two_level_children():
    return [
        {"label": "G1", "weights": {"deterministic": [0.2, 0.8]},
         "children": [{"label": "g11"}, {"label": "g12"}]},
        {"label": "G2", "weights": {"deterministic": [0.4, 0.6]},
         "children": [{"label": "g21"}, {"label": "g22"}]},
    ]


def test_shape_and_traversal(walkthrough):
    tree = walkthrough.tree
    assert tree.n_elementary == 4
    assert len(tree.first_level) == 2
    assert [tree.label_path(p) for p in tree.elementary_paths] == [
        "G1/g11", "G1/g12", "G2/g21", "G2/g22"]
    # parents precede children, depth first
    labels = [tree.label_path(n.path) for n in tree.nodes]
    assert labels == ["G1", "G1/g11", "G1/g12", "G2", "G2/g21", "G2/g22"]


def test_label_path_round_trip(walkthrough):
    tree = walkthrough.tree
    for node in tree.nodes:
        assert tree.path_of_labels(tree.label_path(node.path)) == node.path
    with pytest.raises(InputError):
        tree.path_of_labels("G1/nope")


def test_sibling_groups_order():
    tree = build_tree(two_level_children(), {"deterministic": [0.3, 0.7]})
    groups = tree.sibling_groups()
    assert groups[0].parent_path == ()
    assert [g.parent_path for g in groups] == [(), (1,), (2,)]
    assert [len(g.members) for g in groups] == [2, 2, 2]


def test_deterministic_weights_requires_full_information():
    children = two_level_children()
    tree = build_tree(children, {"ordinal": [2, 1]})
    with pytest.raises(InputError) as err:
        tree.deterministic_weights()
    assert err.value.code == WEIGHT_SPEC


def test_case_study_shape(case_study):
    tree = case_study.tree
    assert len(tree.first_level) == 9
    assert tree.n_elementary == 54
    assert tree.depth == 3
    # every process carries an existence leaf and five input leaves
    for proc in tree.first_level:
        assert len(proc.children) == 2
        existence, inputs = proc.children
        assert existence.is_elementary
        assert len(inputs.children) == 5


def test_duplicate_sibling_labels_rejected():
    with pytest.raises(InputError):
        build_tree([{"label": "A"}, {"label": "A"}])


def test_slash_in_label_rejected():
    with pytest.raises(InputError):
        build_tree([{"label": "A/B"}])


def test_elementary_node_may_not_carry_weights():
    with pytest.raises(InputError):
        build_tree([{"label": "A", "weights": {"deterministic": [1.0]}}])


def test_unknown_node_keys_rejected():
    with pytest.raises(InputError):
        build_tree([{"label": "A", "color": "red"}])


def test_weight_spec_forms():
    assert WeightSpec.from_spec({"deterministic": [0.5, 0.5]}).kind == "deterministic"
    assert WeightSpec.from_spec({"ordinal": [1, 2]}).kind == "ordinal"
    assert WeightSpec.from_spec({"interval": [[0.2, 0.6], [0.4, 0.8]]}).kind == "interval"
    assert WeightSpec.from_spec({"missing": True}).kind == "missing"
    assert WeightSpec.from_spec(None).kind == "missing"
    assert WeightSpec.from_spec({"ordinal": [2.0, None, 1]}).values == (2, None, 1)


@pytest.mark.parametrize("spec", [
    {"deterministic": ["0.2", "0.8"]},
    {"deterministic": [float("nan"), 1.0]},
    {"deterministic": "12"},
    {"ordinal": ["1", "2"]},
    {"ordinal": [1.5, 1]},
    {"ordinal": [True, 1]},
    {"ordinal": [float("inf"), 2]},
    {"interval": [["0.2", "0.8"], [0.2, 0.8]]},
    {"interval": [[0.2, 0.8, 1.0], [0.2, 0.8]]},
    {"interval": [[float("-inf"), 0.8], [0.2, 0.8]]},
], ids=["weight-string", "weight-nan", "weights-string", "rank-string", "rank-fraction",
        "rank-bool", "rank-infinity", "bound-string", "bound-triple", "bound-infinity"])
def test_weight_spec_entries_must_be_finite_numbers(spec):
    # json.loads reads NaN and Infinity; strings and bools are not numbers
    with pytest.raises(InputError) as err:
        WeightSpec.from_spec(spec, "tree/weights")
    assert err.value.code == SCHEMA
    assert err.value.at == "tree/weights"


@pytest.mark.parametrize("value", [[0.2, 0.8], False, None, 1, "true"],
                         ids=["weights", "false", "null", "one", "string"])
def test_missing_weight_spec_must_be_true(value):
    # a deterministic spec written under the wrong key must not load as
    # "no information"
    with pytest.raises(InputError) as err:
        WeightSpec.from_spec({"missing": value}, "tree/weights")
    assert err.value.code == SCHEMA
    assert err.value.at == "tree/weights"
    assert WeightSpec.from_spec({"missing": True}) == WeightSpec.missing()


def test_weight_spec_validation():
    with pytest.raises(InputError) as err:
        WeightSpec.deterministic([0.5, 0.4]).validate(2)
    assert err.value.code == WEIGHT_SPEC

    with pytest.raises(InputError):
        WeightSpec.deterministic([1.2, -0.2]).validate(2)

    for weights in ([float("nan")] * 2, [0.5, float("nan")], [float("inf"), 1.0]):
        with pytest.raises(InputError) as err:       # finite and positive
            WeightSpec.deterministic(weights).validate(2)
        assert err.value.code == WEIGHT_SPEC

    with pytest.raises(InputError):
        WeightSpec.ordinal([0, 1]).validate(2)       # ranks start at 1

    with pytest.raises(InputError):
        WeightSpec.ordinal([1, 2]).validate(3)       # arity mismatch

    with pytest.raises(InputError):
        WeightSpec.interval([[0.6, 0.9], [0.6, 0.9]]).validate(2)   # sum(lo) > 1

    with pytest.raises(InputError):
        WeightSpec.interval([[0.1, 0.2], [0.1, 0.3]]).validate(2)   # sum(hi) < 1

    WeightSpec.interval([[0.2, 0.8], [0.2, 0.8]]).validate(2)
    WeightSpec.ordinal([2, 2, 1]).validate(3)        # ties are fine


@pytest.mark.parametrize("bounds", [
    [[0.3, 0.3], [0.7, 0.7]],               # one point
    [[0.3, 0.3], [0.6, 0.8]],               # a pinned member
    [[0.0, 0.0], [0.2, 0.6], [0.4, 0.8]],   # a member pinned at 0
], ids=["point", "pinned", "pinned-at-0"])
@pytest.mark.parametrize("first_level", [True, False])
def test_zero_volume_interval_weights_rejected(bounds, first_level):
    # a uniform simplex draw never lands on such a set, so sampling could
    # only stall until it gives up
    spec = {"interval": bounds}
    leaves = [{"label": f"g{i + 1}"} for i in range(len(bounds))]
    if first_level:
        children, root, at = leaves, spec, "tree/weights"
    else:
        children = [{"label": "G", "weights": spec, "children": leaves}, {"label": "H"}]
        root, at = {"deterministic": [0.3, 0.7]}, "tree/children/0/weights"
    with pytest.raises(InputError) as err:
        build_tree(children, root)
    assert err.value.code == WEIGHT_SPEC
    assert err.value.at == at


def test_interval_weights_with_volume_or_one_member_load():
    build_tree([{"label": "g"}], {"interval": [[1.0, 1.0]]})
    WeightSpec.interval([(0.30, 0.31), (0.30, 0.31), (0.38, 0.40)]).validate(3)


def test_partial_ordinal_ranks_allowed():
    spec = WeightSpec.ordinal([1, None, 2])
    spec.validate(3)
    assert spec.kind == "ordinal"
