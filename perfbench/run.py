"""smaaflow benchmark: whole ``smaaflow run`` timings and a per-layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py                      # all workloads, untraced
    python3 perfbench/run.py --workload case-study --seed 3 --trace 1

Load shape: a closed loop with one client.  Each run is a fresh Python
process (``child.py``) that calls ``smaaflow.cli.main(["run", ...])`` once,
and the next run starts when the previous one has returned.  All runs of
one invocation use the same problem and seed, so their reports must be
byte-identical.  A new run starts while it is expected to end within
``--seconds``, and until at least ``MIN_RUNS`` runs are done.

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json
(medians over the runs); with ``--trace 1`` traced and untraced runs
alternate and the result holds the per-layer metrics (medians over the
traced runs) plus the tracing overhead.  The last line of standard output
is one JSON object; a fuller record, with the machine and versions, is
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import BUSY_PARTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_out"

MIN_RUNS = 3
#: Draws of the warm-up run, which is too short to count as a measured run.
WARMUP_DRAWS = 100
#: No run starts once an invocation has used this many seconds ...
BUDGET_S = 120
#: ... and a run still going at this point is killed and counted as failed.
HARD_LIMIT_S = 170
#: Monte Carlo standard errors allowed between a run and its reference.
Z = 5.0
ROW_SUM_TOL = 1e-9


def machine() -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10, check=True).stdout.strip()
            return int(out) if out else None
        except (OSError, subprocess.SubprocessError, ValueError):
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def run_child(problem: Path, seed: int, out_dir: Path, trace_dir: Path | None,
              timeout: float, iterations: int | None = None) -> dict:
    """Start one run and wait for it; kills its process group on timeout.

    ``iterations`` overrides the problem's own draw count.
    """
    for d in (out_dir, trace_dir):
        if d is not None:
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(WORK / "tmp"))
    cmd = [sys.executable, str(HERE / "child.py"), str(problem), str(seed), str(out_dir),
           str(trace_dir) if trace_dir is not None else "-"]
    if iterations is not None:
        cmd.append(str(iterations))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"run killed after {timeout:.0f} s"}
    except BaseException:
        # interrupted: take the run and its pool workers down with us
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        return {"error": f"run process exited with {proc.returncode}: {stderr.strip()[-500:]}"}
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"run process printed no result: {stdout[-500:]!r}"}
    if result["exit_code"] != 0:
        result["error"] = f"smaaflow run exited with {result['exit_code']}: {stderr.strip()[-500:]}"
    return result


class OutputCheck:
    """Checks the reports of every run of one invocation."""

    def __init__(self, doc: dict, seed: int, reference: dict):
        self.alternatives = list(doc["alternatives"])
        self.categories = list(doc["categories"])
        self.nodes = ["overall"] + workloads.node_labels(doc)
        self.iterations = doc["smaa"]["iterations"]
        self.seed = seed
        self.reference = reference
        self.first: tuple[bytes, bytes] | None = None

    def __call__(self, out_dir: Path) -> list[str]:
        try:
            return self.check(out_dir)
        except (OSError, IndexError, ValueError) as exc:
            return [f"unreadable report: {exc!r}"]

    def check(self, out_dir: Path) -> list[str]:
        text = (out_dir / "all-nodes.txt").read_bytes()
        csv_bytes = (out_dir / "all-nodes.csv").read_bytes()
        problems = []
        if self.first is None:
            self.first = (text, csv_bytes)
        elif (text, csv_bytes) != self.first:
            problems.append("reports differ from the first run with the same seed")

        header = text.decode().splitlines()[1].split()
        if f"iterations={self.iterations}" not in header or f"seed={self.seed}" not in header:
            problems.append(f"report header {header} does not match the run")
        if b"boundary violations" in text:
            problems.append("boundary violations recorded")

        rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
        if rows[0] != ["alternative", "node", *self.categories, "assigned"]:
            return problems + [f"unexpected CSV header {rows[0]}"]
        expected = [(a, n) for a in self.alternatives for n in self.nodes]
        if [tuple(r[:2]) for r in rows[1:]] != expected:
            return problems + ["CSV rows do not list every (alternative, node) in order"]
        k = len(self.categories)
        overall = []
        for row in rows[1:]:
            values = [float(v) for v in row[2:2 + k]]
            if min(values) < 0.0 or max(values) > 1.0:
                problems.append(f"index outside [0, 1] in {row[:2]}")
            if abs(sum(values) - 1.0) > ROW_SUM_TOL:
                problems.append(f"row {row[:2]} sums to {sum(values)}")
            if row[1] == "overall":
                overall.append(values)
        problems += self.against_reference(overall)
        return problems[:10]

    def against_reference(self, overall: list[list[float]]) -> list[str]:
        """Each overall index within Z pooled standard errors of the reference."""
        n, n_ref = self.iterations, self.reference["iterations"]
        out = []
        for alt, row, ref_row in zip(self.alternatives, overall, self.reference["category_index"]):
            for cat, p, q in zip(self.categories, row, ref_row):
                pooled = (p * n + q * n_ref + 1) / (n + n_ref + 2)
                se = math.sqrt(pooled * (1 - pooled) * (1 / n + 1 / n_ref))
                if abs(p - q) > Z * se:
                    out.append(f"{alt}/{cat}: index {p:.4f} vs reference {q:.4f} "
                               f"(> {Z:g} standard errors of {se:.4f})")
        return out


# ---------------------------------------------------------------------------
# One invocation
# ---------------------------------------------------------------------------

def bench(spec: dict, references: dict, name: str, seed: int, seconds: float,
          trace: bool) -> dict:
    doc = workloads.WORKLOADS[name](seed)
    variant = str(workloads.variant(name, seed))
    reference = references[name][variant]
    if reference["problem_sha256"] != workloads.digest(doc):
        raise SystemExit(f"perfbench: {name} variant {variant} differs from the problem "
                         "its reference was recorded for; run perfbench/make_reference.py")
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    (WORK / "tmp").mkdir(exist_ok=True)
    problem = work / "problem.json"
    problem.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    check = OutputCheck(doc, seed, reference)

    plain, traced, failures, cycles = [], [], [], []
    attempted = 0
    start = time.perf_counter()

    def attempt(traced_run: bool) -> dict | None:
        nonlocal attempted
        attempted += 1
        result = run_child(problem, seed, work / "out", work / "trace" if traced_run else None,
                           HARD_LIMIT_S - (time.perf_counter() - start))
        problems = [result["error"]] if "error" in result else check(work / "out")
        if problems:
            failures.append({"run": attempted, "traced": traced_run, "problems": problems})
            return None
        return result

    # warm-up: a short run whose figures are not kept; it fails only if
    # smaaflow exits non-zero, since its reports cover fewer draws
    attempted += 1
    warm = run_child(problem, seed, work / "warm-up", None, HARD_LIMIT_S, WARMUP_DRAWS)
    if "error" in warm:
        failures.append({"run": attempted, "traced": False, "problems": [warm["error"]]})
    while True:
        elapsed = time.perf_counter() - start
        # stop before a run that would likely end past --seconds
        if elapsed >= BUDGET_S or (
                len(cycles) >= MIN_RUNS and elapsed + statistics.median(cycles) > seconds):
            break
        for traced_run in ((False, True) if trace else (False,)):
            result = attempt(traced_run)
            if result is not None:
                (traced if traced_run else plain).append(result)
        cycles.append(time.perf_counter() - start - elapsed)

    iterations = doc["smaa"]["iterations"]
    metrics = {}
    if plain:
        wall = statistics.median(r["wall_s"] for r in plain)
        values = {
            "wall_s": wall,
            "draws_per_s": iterations / wall,
            "setup_s": statistics.median(t for r in plain for t in r["setup_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        if trace and traced:
            values.update({key: statistics.median(r["trace"][key] for r in traced)
                           for key in traced[0]["trace"]})
            values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted if m["name"] in values}
    return {
        "workload": name,
        "seed": seed,
        "variant": int(variant),
        "iterations": iterations,
        "trace": trace,
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "runs": {"untraced": [{k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}
                              for r in plain],
                 "traced": [r["trace"] for r in traced]},
    }


def show(record: dict) -> None:
    """Human-readable lines for one invocation."""
    runs = record["runs"]["untraced"]
    print(f"== {record['workload']}  seed {record['seed']} (problem variant "
          f"{record['variant']}), {record['iterations']} draws per run, "
          f"{record['attempted']} runs, {record['failed']} failed")
    for failure in record["failures"]:
        print(f"   FAILED run {failure['run']}: {'; '.join(failure['problems'])}")
    if runs:
        walls = [r["wall_s"] for r in runs]
        print(f"   {len(runs)} untraced runs, wall_s min {min(walls):.4f} max {max(walls):.4f}")
    for name, m in record["metrics"].items():
        print(f"   {name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"   {'failed_share':32s} {record['failed'] / record['attempted']:14.6g} "
          f"({record['failed']}/{record['attempted']})")
    values = {k: v["value"] for k, v in record["metrics"].items()}
    if "smaa.busy_s" in values and values["smaa.busy_s"] > 0:
        busy = values["smaa.busy_s"]
        parts = {k: values[k] for k in BUSY_PARTS}
        print(f"   share of smaa.busy_s ({busy:.4f} s in {values['smaa.pool.workers']:g} "
              f"workers and the parent; layer self times sum to "
              f"{sum(parts.values()) / busy:.3f} of it):")
        for k, v in sorted(parts.items(), key=lambda kv: -kv[1]):
            print(f"     {k:30s} {100 * v / busy:6.1f} %")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "smaaflow" / "__init__.py").is_file():
        print(f"perfbench: no smaaflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated benchmark still stops the run it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = machine()
    results = []
    for name in args.workload or names:
        record = bench(spec, references, name, args.seed, args.seconds, bool(args.trace))
        record["machine"] = env
        out = WORK / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        show(record)
        results.append(record)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
