"""Command line interface: exit codes, reports on disk, the walkthrough."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from smaaflow.cli import build_parser, main
from smaaflow.model_io import fixture_path

INVALID = Path(__file__).parent / "data" / "invalid"


def test_validate_ok(capsys):
    assert main(["validate", str(fixture_path("walkthrough"))]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "4 elementary" in out
    assert "deterministic" in out


def test_validate_case_study(capsys):
    assert main(["validate", str(fixture_path("case-study"))]) == 0
    out = capsys.readouterr().out
    assert "54 elementary" in out
    assert "ordinal" in out


def test_validate_bad_document(capsys):
    assert main(["validate", str(INVALID / "weight_sum.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[WEIGHT_SPEC]")


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "error[IO]" in capsys.readouterr().err


def test_run_deterministic(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code = main(["run", str(fixture_path("walkthrough")), "--deterministic",
                 "--out", str(out_dir)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "x1" in stdout and "reports written" in stdout
    assert (out_dir / "category.txt").exists()
    assert (out_dir / "category.csv").exists()
    assert "C1" in (out_dir / "category.csv").read_text()


def test_run_is_reproducible_across_invocations_and_threads(tmp_path, capsys):
    base = ["run", str(fixture_path("walkthrough")),
            "--iterations", "80", "--seed", "4", "--level", "all-nodes"]
    outputs = []
    for sub, threads in (("one", "1"), ("two", "1"), ("three", "3")):
        out_dir = tmp_path / sub
        assert main(base + ["--out", str(out_dir), "--threads", threads]) == 0
        outputs.append((out_dir / "all-nodes.csv").read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1] == outputs[2]


def test_run_rule_and_level_flags(tmp_path, capsys):
    out_dir = tmp_path / "r"
    code = main(["run", str(fixture_path("walkthrough")), "--iterations", "5",
                 "--rule", "negative", "--level", "first-level",
                 "--out", str(out_dir)])
    assert code == 0
    capsys.readouterr()
    assert (out_dir / "first-level.txt").exists()
    assert (out_dir / "first-level.csv").exists()


def test_example_walkthrough_values(capsys):
    assert main(["example", "walkthrough"]) == 0
    out = capsys.readouterr().out
    assert "π(x1,r2) = 1.000" in out
    assert "π(x2,r2) = 0.300" in out
    assert "φ(x2) = -0.133" in out
    assert "φ(x1) = 0.333" in out
    assert "x1 → C1" in out
    assert "x2 → C2" in out


def test_example_write_copies_the_fixture(tmp_path, capsys):
    target = tmp_path / "copy.json"
    assert main(["example", "case-study", "--write", str(target)]) == 0
    capsys.readouterr()
    assert target.exists()
    assert main(["validate", str(target)]) == 0
    capsys.readouterr()


def test_unknown_example_name_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["example", "no-such-example"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("iterations", ["0", "-5", "many"])
def test_iterations_below_one_is_a_usage_error(tmp_path, capsys, iterations):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(fixture_path("walkthrough")), "--iterations", iterations,
              "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "--iterations" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(fixture_path("walkthrough")), "--iterations", "5",
              "--threads", threads, "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_default_threads_are_the_cpus_the_process_may_use(monkeypatch):
    # a process pinned to one CPU (taskset, a cpuset) starts one worker,
    # however many CPUs the machine has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    args = build_parser().parse_args(["run", "problem.json"])
    assert args.threads == 1


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_closed_stdout_is_an_io_error(tmp_path, buffered):
    # `smaaflow run ... | head` whose reader has gone: stdout is a pipe with
    # no read end, so the first write (unbuffered) or the flush (buffered)
    # fails; the run exits 2 with one error line and its reports written
    src = Path(__file__).resolve().parent.parent / "src"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "smaaflow", "run", str(fixture_path("walkthrough")),
             "--iterations", "10", "--threads", "1", "--out", str(tmp_path / "r")],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    err = proc.stderr.decode().splitlines()
    assert proc.returncode == 2
    assert len(err) == 1 and err[0].startswith("error[IO]: ")
    assert sorted(p.name for p in (tmp_path / "r").iterdir()) == ["category.csv", "category.txt"]


def test_module_entry_point():
    import smaaflow.__main__  # noqa: F401  (import must not execute main)


@pytest.mark.parametrize("rule", ["net", "positive", "negative"])
def test_spread_sum_stops_a_valid_document(tmp_path, capsys, rule):
    # a document that validate accepts runs under centroid, but under
    # spread-sum one leaf's positive profile flows rise, so a run under the
    # positive rule stops on that table; the net and negative rules never
    # build it, and their own tables are ordered, so they run
    doc = str(Path(__file__).parent / "data" / "spread_sum_stop.json")
    assert main(["validate", doc]) == 0
    base = ["run", doc, "--rule", rule, "--out", str(tmp_path / "r")]
    assert main(base) == 0
    capsys.readouterr()
    if rule != "positive":
        assert main(base + ["--defuzz", "spread-sum"]) == 0
        return
    assert main(base + ["--defuzz", "spread-sum"]) == 1
    assert capsys.readouterr().err.strip() == (
        "error[INVARIANT]: positive profile flows are not non-increasing "
        "(worst step 0.05555555555555547)")


def test_reports_match_frozen_digests(capsys, monkeypatch):
    # every report and parsed problem of scripts/report_digests.py, byte
    # for byte as frozen in tests/data/report_digests.txt
    import importlib.util
    import sys

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("report_digests",
                                                  root / "scripts" / "report_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends the checkout's paths
    capsys.readouterr()
    assert script.main([]) == 0
    got = capsys.readouterr().out.splitlines()
    want = (root / "tests" / "data" / "report_digests.txt").read_text().splitlines()
    assert got == want
