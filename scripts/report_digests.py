"""Print one sha256 digest per smaaflow report, so that two checkouts can be
checked for byte-identical reports with one diff.

Usage: python scripts/report_digests.py [--root CHECKOUT]

The reports come from the smaaflow package and ``perfbench/workloads.py`` of
CHECKOUT (default: the checkout holding this script), run in this process:

- ``smaaflow example walkthrough`` (its standard output);
- the walkthrough run and its ``--deterministic`` run;
- the case study under ``--rule net|positive|negative`` x ``--threads 1|2``;
- the generated ``case_study_interval(0)``, ``synthetic_wide(0)`` and
  ``synthetic_wide(3)`` problems, and ``case_study_interval(0)`` again
  under ``--rule positive``, ``--rule negative`` and ``--defuzz spread-sum``
  (stochastic data: every draw builds its own pair components);
- ``synthetic_wide(0)`` again under ``--rule positive`` and ``--rule
  negative`` (fixed inner nodes: the folded sums, with the whole tree's
  positive or negative table built for its rule alone);
- the walkthrough, with and without ``--deterministic``, and
  ``tests/data/mixed_forms.json`` under ``--rule positive`` and ``--rule
  negative`` (a fixed whole tree; fixed and varying inner nodes over
  stochastic data);
- ``tests/data/mixed_forms.json`` again under ``--defuzz spread-sum`` and
  under ``--threads 2`` (normal cells between interval runs, an interval
  profile level and an interval q/p pair: both defuzzifications of the
  pair kernel on leaves whose profiles vary and leaves whose do not);
- ``tests/data/sampled_inputs.json``, and again under ``--threads 2``,
  ``--rule positive`` and ``--rule negative`` (a normal profile level, an
  interval profile column redrawn until ordered, a normal q on a linear
  pair, an interval q on a u-shape and an interval p on a v-shape: the
  leaf tables each rule keeps, on leaves whose profiles vary);
- ``tests/data/eight_categories.json`` under ``--rule net`` and ``--rule
  positive`` (nine fuzzy profile levels, enough for numpy to sum the
  profile axis pairwise, over interval and fuzzy evaluations and an
  interval q/p pair);
- ``tests/data/weight_mix.json`` (interval, missing, one-member missing,
  ordinal and deterministic sibling groups, an interval group between two
  ordinal ones: the weight draw's stacks across an interval group);
- ``tests/data/quoted_names.json`` under all three levels (the walkthrough
  under names with commas, double quotes, a leading space, braces and a
  line break: the CSV's quoting and the text's braces);
- ``tests/data/mixed_forms.json`` (the walkthrough with every value form),
  ``tests/data/sampled_inputs.json``, ``tests/data/eight_categories.json``,
  ``tests/data/weight_mix.json`` and ``tests/data/quoted_names.json`` of
  the checkout holding this script,
  so CHECKOUT is tried on the same documents whether or not it has the
  files.

Every run uses ``--level all-nodes``, and the case study (net rule, one
thread) and ``synthetic_wide(0)`` run again under ``--level category`` and
``--level first-level``.  Each run uses the problem's own iterations and
seed, and writes its text and CSV reports to a temporary directory.  Each
output line is ``<report> <file> <sha256>``.  One more line per problem,
``<problem> dump_problem <sha256>``, digests the canonical document of the
parsed problem, so the same diff also checks that the parser builds the
same problem.  To compare a change with its parent:

    python scripts/report_digests.py --root PARENT > parent.txt
    python scripts/report_digests.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"

GENERATED = (("case-study-interval-0", "case_study_interval", 0),
             ("synthetic-wide-0", "synthetic_wide", 0),
             ("synthetic-wide-3", "synthetic_wide", 3))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and perfbench/ to run")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from smaaflow import cli
    from smaaflow.model_io import dump_problem, fixture_path, load_problem

    def call(cli_args) -> bytes:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(cli_args)
        if code != 0:
            raise SystemExit(f"smaaflow {' '.join(cli_args)} exited with {code}")
        return out.getvalue().encode()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        print("example-walkthrough stdout", sha(call(["example", "walkthrough"])))
        problems = {name: fixture_path(name) for name in ("walkthrough", "case-study")}
        problems["mixed-forms"] = DATA / "mixed_forms.json"
        problems["sampled-inputs"] = DATA / "sampled_inputs.json"
        problems["eight-categories"] = DATA / "eight_categories.json"
        for name, generator, seed in GENERATED:
            problems[name] = tmp / f"{name}.json"
            problems[name].write_text(json.dumps(getattr(workloads, generator)(seed)),
                                      encoding="utf-8")
        problems["weight-mix"] = DATA / "weight_mix.json"
        problems["quoted-names"] = DATA / "quoted_names.json"
        for name, problem in problems.items():
            print(name, "dump_problem", sha(dump_problem(load_problem(problem)).encode()))
        runs = [("walkthrough", problems["walkthrough"], "all-nodes", []),
                ("walkthrough-deterministic", problems["walkthrough"], "all-nodes",
                 ["--deterministic"])]
        for rule in ("net", "positive", "negative"):
            for threads in (1, 2):
                runs.append((f"case-study-{rule}-t{threads}", problems["case-study"],
                             "all-nodes", ["--rule", rule, "--threads", str(threads)]))
        runs += [(name, problems[name], "all-nodes", [])
                 for name in ("mixed-forms", "sampled-inputs",
                              *(name for name, _, _ in GENERATED))]
        for extra in (["--rule", "positive"], ["--rule", "negative"], ["--defuzz", "spread-sum"]):
            runs.append((f"case-study-interval-0-{extra[1]}", problems["case-study-interval-0"],
                         "all-nodes", extra))
        for rule in ("positive", "negative"):
            runs.append((f"synthetic-wide-0-{rule}", problems["synthetic-wide-0"], "all-nodes",
                         ["--rule", rule]))
            runs += [(f"walkthrough-{rule}", problems["walkthrough"], "all-nodes", ["--rule", rule]),
                     (f"walkthrough-deterministic-{rule}", problems["walkthrough"], "all-nodes",
                      ["--rule", rule, "--deterministic"]),
                     (f"mixed-forms-{rule}", problems["mixed-forms"], "all-nodes",
                      ["--rule", rule])]
        for extra in (["--defuzz", "spread-sum"], ["--threads", "2"]):
            runs.append((f"mixed-forms-{extra[1]}", problems["mixed-forms"], "all-nodes", extra))
        runs.append(("sampled-inputs-2", problems["sampled-inputs"], "all-nodes",
                     ["--threads", "2"]))
        runs += [(f"sampled-inputs-{rule}", problems["sampled-inputs"], "all-nodes",
                  ["--rule", rule]) for rule in ("positive", "negative")]
        runs += [(f"eight-categories-{rule}", problems["eight-categories"], "all-nodes",
                  ["--rule", rule]) for rule in ("net", "positive")]
        runs.append(("weight-mix", problems["weight-mix"], "all-nodes", []))
        for level in ("category", "first-level"):
            runs.append((f"case-study-net-t1-{level}", problems["case-study"], level,
                         ["--threads", "1"]))
            runs.append((f"synthetic-wide-0-{level}", problems["synthetic-wide-0"], level, []))
        runs += [(f"quoted-names-{level}", problems["quoted-names"], level, [])
                 for level in ("category", "first-level", "all-nodes")]
        for name, problem, level, extra in runs:
            out = tmp / name
            call(["run", str(problem), "--level", level, "--out", str(out), *extra])
            for report in sorted(out.iterdir()):
                print(name, report.name, sha(report.read_bytes()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
