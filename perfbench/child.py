"""One measured ``smaaflow run`` in a fresh interpreter.

Usage: python3 perfbench/child.py PROBLEM SEED OUT_DIR TRACE_DIR|- [ITERATIONS]

Imports numpy and smaaflow from the checkout's ``src`` first, untimed.  It
then times ``load_problem`` on its own several times (``setup_s``), and
times one ``smaaflow.cli.main(["run", ...])`` call (``wall_s``) with the
CLI's default thread count.  With a trace directory it installs the span
recorder before the run; ITERATIONS, if given, overrides the problem's
draw count.  The last line of standard output is one JSON
object with the measurements.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402,F401  (imported before timing starts)
from smaaflow import cli, model_io  # noqa: E402
from spans import Recorder, summarize  # noqa: E402

#: ``load_problem`` repetitions per run; setup_s is the median over all
#: repetitions of all runs of an invocation.
SETUP_REPEATS = 5


def main(argv: list[str]) -> int:
    problem, seed, out_dir, trace_dir, *iterations = argv
    loads = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        model_io.load_problem(problem)
        loads.append(time.perf_counter() - start)

    recorder = None
    if trace_dir != "-":
        recorder = Recorder(Path(trace_dir))
        recorder.install()

    report = io.StringIO()
    start = time.perf_counter()
    args = ["run", problem, "--level", "all-nodes", "--seed", seed, "--out", out_dir]
    if iterations:
        args += ["--iterations", iterations[0]]
    with contextlib.redirect_stdout(report):
        code = cli.main(args)
    wall = time.perf_counter() - start

    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {
        "exit_code": code,
        "wall_s": wall,
        "setup_s": loads,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    if recorder is not None:
        out["trace"] = summarize(recorder.state(), recorder.worker_states())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
