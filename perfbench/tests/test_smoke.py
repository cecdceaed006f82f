"""Smoke test of the benchmark on a tiny configuration.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
Each workload runs once untraced and once traced on one seed set, with a
tenth of the data and one epoch per training, so the whole file takes
seconds.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import clock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

BENCH = run.load_benchmark()


def _measure(workload, trace, out):
    t0 = time.perf_counter()
    result = run.measure(workload, seed=0, seconds=0, trace=trace, tiny=True, out=out)
    return result, time.perf_counter() - t0


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result, _ = _measure(workload, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    table = BENCH["per_layer" if trace else "end_to_end"]
    line = run.result_line(result, table)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for metric in table:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"]), metric["name"]
    json.dumps(line)  # the result line must be plain JSON


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_spans_are_consistent(workload, tmp_path):
    result, wall = _measure(workload, True, tmp_path)
    assert result["extra"]["unresolved"] == []
    spans = [json.loads(ln) for ln in Path(result["extra"]["spans_file"]).read_text().splitlines()]
    assert spans
    assert all(s["self_s"] >= 0.0 for s in spans)
    top = [s for s in spans if s["parent"] < 0]
    assert sum(s["end"] - s["start"] for s in top) <= wall
    names = {s["name"].split(":")[0] for s in spans}
    assert {label for _, _, label in tracing.WRAPPED} <= names


def test_every_layer_metric_names_what_it_should_move():
    layers = run.SPEC["layers"]
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    assert [m["name"] for m in BENCH["per_layer"]] == list(layers)
    for name, entry in layers.items():
        assert set(entry["moves"]) <= e2e | set(layers), name
        assert set(entry["workloads"]) <= set(run.WORKLOADS), name


def test_a_failed_check_reports_no_numbers(tmp_path, monkeypatch):
    cd, _ = run.import_package()
    original = cd.synthetic.read_dataset

    def lossy_read(directory):
        ds = original(directory)
        ds.records.pop()
        return ds

    monkeypatch.setattr(cd.synthetic, "read_dataset", lossy_read)
    result, _ = _measure("paper-distill", False, tmp_path)
    assert result["correct"] is False and result["values"] == {}


def test_command_line_takes_the_protocol_options():
    args = run.arg_parser(BENCH).parse_args(
        ["--workload", "wide-distill", "--seed", "3", "--seconds", "7", "--trace", "1"])
    assert (args.workload, args.seed, args.seconds, args.trace) == ("wide-distill", 3, 7.0, 1)
    assert run.arg_parser(BENCH).parse_args(["--workload", "paper-distill"]).seconds \
        == BENCH["run_seconds"]


def test_a_renamed_step_function_is_listed_not_fatal(tmp_path, monkeypatch):
    # as if train.adamw_step had been renamed: the tracer cannot find it, and
    # the clock falls back to the next step hook and says so
    wrapped = tuple(("train", "renamed_step", label) if label == "train.adamw_step"
                    else entry for entry in tracing.WRAPPED for label in [entry[2]])
    monkeypatch.setattr(tracing, "WRAPPED", wrapped)
    monkeypatch.setattr(run, "STEP_HOOKS", ("renamed_step", "forward"))
    result, _ = _measure("paper-distill", True, tmp_path)
    assert result["correct"]
    assert "missing: train.renamed_step" in result["extra"]["unresolved"]
    assert result["values"]["trace.unresolved_names"] >= 1
    assert "train.forward" in result["extra"]["clock"]["policy"]


def test_a_kernel_slowed_inside_trainings_makes_the_run_unresolved(tmp_path, monkeypatch,
                                                                  capsys):
    inside = []

    def kernel():
        time.sleep(0.004 if inside else 0.001)

    def calibrate_every_step(self):
        inside.append(True)
        self.calibrate(inside=True)
        inside.clear()

    monkeypatch.setattr(clock, "reference_kernel", kernel)
    monkeypatch.setattr(clock.Clock, "calibrate_if_stale", calibrate_every_step)
    result, _ = _measure("paper-distill", False, tmp_path)
    assert result["correct"] is False and result["values"] == {}
    assert "clock unresolved" in capsys.readouterr().err


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "paper-distill",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
