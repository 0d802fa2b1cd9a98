"""Command line front end.

Three subcommands:

``validate``  parse a problem file and run all static checks
``run``       acceptability analysis, writing text and CSV reports
``example``   bundled example problems; ``walkthrough`` prints every
              intermediate quantity of the small one step by step

Exit codes: 0 on success, 1 for validation or domain errors, 2 for I/O
errors (a closed standard output among them) and argparse usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import IO, InputError, SmaaFlowError
from .flows import (
    RULES,
    assignments,
    flow_bundle,
    outranking_degree,
    single_criterion_assignment,
    single_criterion_flows,
)
from .fuzzy import DEFUZZ_METHODS
from .model_io import (
    FIXTURES,
    REPORT_LEVELS,
    dump_problem,
    fixture_path,
    load_problem,
    write_report,
)
from .preference import fuzzy_preference
from .smaa import deterministic_result, run_smaa


def _positive_int(text: str) -> int:
    """argparse type of a count of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (taskset, cpusets), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smaaflow",
        description="Hierarchical fuzzy sorting with stochastic acceptability analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a problem file")
    p_val.add_argument("problem", help="path of the problem JSON file")
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run the acceptability analysis")
    p_run.add_argument("problem", help="path of the problem JSON file")
    p_run.add_argument("--iterations", type=_positive_int, default=None,
                       help="Monte Carlo draws (default: problem setting or 10000)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="root seed (default: problem setting or 0)")
    p_run.add_argument("--rule", choices=RULES, default=None,
                       help="assignment rule for the overall index (default: net)")
    p_run.add_argument("--level", choices=REPORT_LEVELS, default="category",
                       help="report granularity")
    p_run.add_argument("--out", default="reports", metavar="DIR",
                       help="output directory (default: ./reports)")
    p_run.add_argument("--threads", type=_positive_int, default=_usable_cpus(),
                       help="worker processes (default: the CPUs this process may use); "
                            "results do not depend on this")
    p_run.add_argument("--deterministic", action="store_true",
                       help="single run with fixed inputs instead of sampling "
                            "(requires deterministic weights and data)")
    p_run.add_argument("--defuzz", choices=DEFUZZ_METHODS, default=None,
                       help="defuzzification method (default: centroid)")
    p_run.add_argument("--strict", action="store_true",
                       help="abort on the first boundary violation")
    p_run.set_defaults(func=cmd_run)

    p_ex = sub.add_parser("example", help="bundled example problems")
    p_ex.add_argument("name", choices=sorted(FIXTURES))
    p_ex.add_argument("--write", metavar="FILE", default=None,
                      help="copy the example problem file to FILE")
    p_ex.set_defaults(func=cmd_example)

    return parser


def cmd_validate(args) -> int:
    problem = load_problem(args.problem)
    tree = problem.tree
    print(f"{args.problem}: ok")
    print(f"  name:          {problem.name or '(unnamed)'}")
    print(f"  alternatives:  {len(problem.alternative_names)}")
    print(f"  categories:    {problem.n_categories}")
    print(f"  tree:          {len(tree.first_level)} first-level criteria, "
          f"{tree.n_elementary} elementary, depth {tree.depth}")
    kinds = sorted({g.spec.kind for g in tree.sibling_groups()})
    print(f"  weight specs:  {', '.join(kinds)}")
    print(f"  data:          {'deterministic' if problem.is_deterministic_data else 'stochastic'}")
    return 0


def cmd_run(args) -> int:
    problem = load_problem(args.problem)
    d = problem.defaults
    rule = args.rule or d.rule
    defuzz = args.defuzz or d.defuzz
    if args.deterministic:
        result = deterministic_result(problem, rule=rule, defuzz=defuzz, strict=args.strict)
    else:
        result = run_smaa(
            problem,
            iterations=args.iterations if args.iterations is not None else d.iterations,
            seed=args.seed if args.seed is not None else d.seed,
            rule=rule,
            threads=args.threads,
            defuzz=defuzz,
            strict=args.strict,
        )

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        text = write_report(result, problem, level=args.level, fmt="text")
        csv_text = write_report(result, problem, level=args.level, fmt="csv")
        text_file = out / f"{args.level}.txt"
        csv_file = out / f"{args.level}.csv"
        text_file.write_text(text, encoding="utf-8")
        csv_file.write_text(csv_text, encoding="utf-8")
    except OSError as exc:
        raise InputError(IO, f"cannot write reports to {out}: {exc}") from exc

    print(text, end="")
    print(f"reports written: {text_file}, {csv_file}")
    return 0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _walkthrough_example() -> str:
    problem = load_problem(fixture_path("walkthrough"))
    tree = problem.tree
    weights = tree.deterministic_weights()
    prefs = problem.resolved_preferences()
    profiles = problem.resolved_profile_set()
    k = profiles.category_count
    prof_names = [f"r{h + 1}" for h in range(k + 1)]
    alt_names = list(problem.alternative_names)
    evals = {name: problem.evaluation_tfns(name) for name in alt_names}
    el_labels = [tree.label_path(p) for p in tree.elementary_paths]

    lines: list[str] = []
    lines.append("Walkthrough of the bundled two-level example")
    lines.append("")
    lines.append("Criteria tree (weight, direction):")
    for node in tree.nodes:
        slot = tree.elementary_index.get(node.path)
        extra = f", {prefs[slot].direction}" if slot is not None else ""
        indent = "  " * len(node.path)
        lines.append(f"{indent}{node.label} (w={weights[node.path]:g}{extra})")
    lines.append(f"Profiles {prof_names[0]}..{prof_names[-1]} separate "
                 f"{k} categories: {', '.join(problem.categories)}")
    lines.append("")

    lines.append(f"Elementary preference degrees P(a,b) as (mode; spreads), "
                 f"criteria {el_labels}:")
    elements = {name: evals[name] for name in alt_names}
    for h, row in enumerate(profiles.levels):
        elements[prof_names[h]] = list(row)
    pair_names = []
    for h in range(k + 1):
        for l in range(k + 1):
            if h != l:
                pair_names.append((prof_names[h], prof_names[l]))
    for name in alt_names:
        for h in range(k + 1):
            pair_names.append((name, prof_names[h]))
            pair_names.append((prof_names[h], name))
    for a, b in pair_names:
        cells = []
        for t in range(tree.n_elementary):
            d = fuzzy_preference(prefs[t], elements[a][t], elements[b][t])
            if d.is_crisp:
                cells.append(f"{d.m:g}")
            else:
                cells.append(f"({d.m:g};{d.alpha:g};{d.beta:g})")
        lines.append(f"  P({a},{b}) = [{', '.join(cells)}]")
    lines.append("")

    lines.append("Aggregated outranking degrees:")
    for a, b in pair_names:
        pi = outranking_degree(tree, weights, prefs, elements[a], elements[b])
        lines.append(f"  π({a},{b}) = {_fmt(pi)}")
    lines.append("")

    lines.append("Flows (within each alternative's reference set):")
    bundles = {}
    for name in alt_names:
        bundle = flow_bundle(tree, weights, prefs, profiles, evals[name])
        bundles[name] = bundle
        t = bundle.alternative
        lines.append(f"  φ+({name}) = {_fmt(t.plus)}")
        lines.append(f"  φ-({name}) = {_fmt(t.minus)}")
        lines.append(f"  φ({name}) = {_fmt(t.net)}")
    lines.append("")

    lines.append("Profile flows (positive / negative / net):")
    for name in alt_names:
        lines.append(f"  relative to {name}:")
        for h, t in enumerate(bundles[name].profiles):
            lines.append(
                f"    φ+({prof_names[h]}) = {_fmt(t.plus)}   "
                f"φ-({prof_names[h]}) = {_fmt(t.minus)}   "
                f"φ({prof_names[h]}) = {_fmt(t.net)}"
            )
    lines.append("")

    lines.append("Single-criterion net flows and assignments:")
    for name in alt_names:
        for node in tree.nodes:
            sc = single_criterion_flows(
                tree, weights, prefs, profiles, evals[name], node.path
            )
            cat = problem.categories[single_criterion_assignment(sc) - 1]
            label = tree.label_path(node.path)
            prof_part = ", ".join(_fmt(v) for v in sc.profile_net)
            lines.append(
                f"  φ_{label}({name}) = {_fmt(sc.net)}  profiles [{prof_part}]  -> {cat}"
            )
    lines.append("")

    lines.append("Assignments (positive / negative / net rule):")
    finals = {}
    for name in alt_names:
        a = assignments(bundles[name])
        finals[name] = problem.categories[a.by_net - 1]
        lines.append(
            f"  {name}: {problem.categories[a.by_positive - 1]} / "
            f"{problem.categories[a.by_negative - 1]} / {problem.categories[a.by_net - 1]}"
        )
    for name in alt_names:
        lines.append(f"{name} → {finals[name]}")
    return "\n".join(lines)


def cmd_example(args) -> int:
    src = fixture_path(args.name)
    if args.write:
        try:
            Path(args.write).write_text(
                src.read_text(encoding="utf-8"), encoding="utf-8"
            )
        except OSError as exc:
            raise InputError(IO, f"cannot write {args.write}: {exc}") from exc
        print(f"wrote {args.write}")
    if args.name == "walkthrough":
        print(_walkthrough_example())
    else:
        problem = load_problem(src)
        print(f"bundled example {args.name!r} ({src})")
        print(f"  {problem.name or ''}")
        if problem.notes:
            print(f"  {problem.notes}")
        print(f"  alternatives: {len(problem.alternative_names)}, "
              f"categories: {problem.n_categories}, "
              f"elementary criteria: {problem.tree.n_elementary}")
        print(f"run it with: smaaflow run {src} --level all-nodes")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except SmaaFlowError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2 if exc.code == IO else 1
    except BrokenPipeError as exc:
        # most often the reader of stdout went away (`smaaflow run ... | head`)
        # after the reports were written; the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error[{IO}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
