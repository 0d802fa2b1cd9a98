"""Record the reference acceptability indices the benchmark checks against.

Usage (from the root of a checkout): python3 perfbench/make_reference.py

For every problem a workload can generate, runs the library's ``run_smaa``
for ``REF_FACTOR`` times the workload's iterations with a seed no benchmark
run uses, and writes the overall category indices to ``reference.json``
with a digest of the problem they belong to.  Rerun it only when a
workload generator changes, and never to make a changed result pass.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from smaaflow import parse_problem, run_smaa  # noqa: E402

REF_FACTOR = 4
REF_SEED = 7_654_321_987


def main() -> int:
    out = {}
    for name, build in workloads.WORKLOADS.items():
        out[name] = {}
        seeds = [0] if name == "case-study" else range(workloads.VARIANTS)
        for seed in seeds:
            doc = build(seed)
            iterations = REF_FACTOR * doc["smaa"]["iterations"]
            result = run_smaa(parse_problem(doc), iterations=iterations, seed=REF_SEED,
                              threads=os.cpu_count() or 1)
            if result.boundary_violations:
                raise SystemExit(f"{name} variant {seed}: {result.boundary_violations} "
                                 "boundary violations")
            out[name][str(workloads.variant(name, seed))] = {
                "problem_sha256": workloads.digest(doc),
                "iterations": iterations,
                "seed": REF_SEED,
                "category_index": result.category_index.tolist(),
            }
            print(f"{name} variant {seed}: {iterations} draws", flush=True)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
