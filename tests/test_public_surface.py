"""The package's documented names: ``smaaflow.__all__`` is the public
surface, and an engine refactor must neither drop nor rename an entry.
The numpy names the package uses are checked here too."""

import ast
import re
from pathlib import Path

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


#: Every ``np.`` name the package uses, each one that numpy 1.24, the
#: floor in pyproject.toml, has.  A name joins only once numpy 1.24 is
#: known to have it, with a CHANGES.md line saying so.
NUMPY_1_24 = (
    "add", "arange", "argsort", "array", "asarray", "ascontiguousarray", "bincount",
    "broadcast_to", "clip", "column_stack", "concatenate", "copyto", "diff", "divide",
    "empty", "empty_like", "errstate", "exp", "flatnonzero", "flip", "float64", "floor",
    "full", "greater", "greater_equal", "inf", "int32", "int64", "intp", "isfinite",
    "less", "maximum", "minimum", "moveaxis", "multiply", "ndarray", "negative",
    "nextafter", "ones", "ones_like", "put_along_axis", "random", "random.Generator",
    "random.PCG64", "random.SeedSequence", "repeat", "rint", "sort", "stack", "subtract",
    "take", "take_along_axis", "tile", "where", "zeros", "zeros_like",
)


def numpy_names(source: str) -> set[str]:
    """Every dotted ``np.`` attribute in ``source``, ``np`` left off; a
    chain gives each of its prefixes too (``random``, ``random.PCG64``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "np":
            names.add(".".join(reversed(parts)))
    return names


def test_package_uses_only_numpy_names_of_the_floor():
    # only a newer numpy is installed, so this list stands in for the floor
    package = Path(smaaflow.__file__).parent
    used = set().union(*(numpy_names(f.read_text(encoding="utf-8"))
                         for f in package.glob("*.py")))
    assert {"random.Generator", "sort"} <= used
    assert sorted(used - set(NUMPY_1_24)) == []


def test_package_parses_under_the_python_floor():
    # only a newer Python is installed, so the parser stands in for the
    # floor; read with a regex, since tomllib is not in Python 3.10
    package = Path(smaaflow.__file__).parent
    pyproject = (package.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject,
                                      re.MULTILINE).groups())
    for f in sorted(package.glob("*.py")):
        ast.parse(f.read_text(encoding="utf-8"), filename=str(f), feature_version=(major, minor))
