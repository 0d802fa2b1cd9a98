"""The package's documented names: ``smaaflow.__all__`` is the public
surface, and an engine refactor must neither drop nor rename an entry."""

import smaaflow

PUBLIC = {
    "AcceptabilityResult", "Assignment", "BatchEngine", "BoundaryViolation",
    "CriteriaTree", "CriterionNode", "DEFUZZ_METHODS", "FlowBundle", "FlowTriple",
    "InputError", "InvariantError", "LinguisticScale", "PreferenceModel",
    "PreferenceSpec", "Problem", "ProfileSet", "RunDefaults", "SamplingError",
    "SingleCriterionFlows", "SmaaFlowError", "StochasticValue", "TFN",
    "TriangularFuzzyNumber", "WeightSpec", "alternative_flows", "assign",
    "assignments", "build_tree", "deterministic_result", "dump_problem",
    "fixture_path", "flow_bundle", "fuzzy_outranking", "fuzzy_preference",
    "iteration_rng", "load_problem", "outranking_degree", "parse_problem",
    "preference_value", "problem_to_document", "profile_flows", "run_smaa",
    "sample_profiles", "sample_thresholds", "sample_value",
    "sample_weights_interval", "sample_weights_missing", "sample_weights_ordinal",
    "single_criterion_assignment", "single_criterion_flows", "subtree_preference",
    "write_report",
}


def test_every_public_name_resolves_and_none_is_lost():
    assert len(smaaflow.__all__) == len(set(smaaflow.__all__))
    assert set(smaaflow.__all__) == PUBLIC
    for name in smaaflow.__all__:
        assert getattr(smaaflow, name) is not None
