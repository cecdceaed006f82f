"""Benchmark of the teacher -> student distillation experiment.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-distill [--seed N] [--seconds S] [--trace 0|1]

``--seed N`` selects the experiment seeds N*k .. N*k+k-1, with k fixed in
``perfbench/spec.json``. ``--seconds`` defaults to ``run_seconds`` of
``BENCHMARK.json``. One run sets up the dataset of every seed several
times, then repeats the whole experiment over those seeds, one training at a
time in this process, until ``--seconds`` is used up (at least once). Timing
metrics are medians over all repetitions; quality metrics come from the
first repetition and every later one must reproduce them exactly.

Times are read from ``clock.Clock``: each interval is bracketed by runs of a
fixed reference kernel and reported in seconds at the kernel's nominal
speed, which cancels most of a shared machine's speed drift. Long trainings
also recalibrate after a step (``STEP_HOOKS``). The result file records that
clock policy, the kernel times inside and between trainings, and the raw
wall-clock values next to the normalised ones. A run whose kernel ran
slower (or faster) inside trainings than between them by more than the
``experiment_s`` bound is unresolved: it reports ``"correct": false``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
``BENCHMARK.json``. With ``--trace 1`` untraced and traced repetitions
alternate and it reports the per-layer metrics, including the tracing
overhead. Results, the environment record and the spans are also written
under ``.perfbench_out/`` in the repository root. The run exits non-zero
without a result line when the package sources are absent, and with
``"correct": false`` when an output check fails.
"""

from __future__ import annotations

import os

# Pin BLAS before NumPy is imported: a step here is interpreter-bound, and
# thread start-up noise would otherwise dominate the spread.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((HERE / "spec.json").read_text())
MODULES = ("autodiff", "concepts", "model", "losses", "synthetic", "metrics", "train")

TEACHER_LR, TEACHER_EPOCHS = 3e-3, 30
STUDENT_LR, STUDENT_EPOCHS = 3e-3, 20
TAU = 10.0
VARIANTS = {"baseline": (0.0, 0.0), "gpd": (0.6, 0.0), "lcd": (0.0, 0.05), "combined": (0.6, 0.05)}
MIN_SETUPS = 5

sys.path.insert(0, str(HERE))
from clock import RECALIBRATE_S, Clock, elapsed  # noqa: E402
from tracing import Tracer, layer_metrics, unresolved  # noqa: E402


@dataclass(frozen=True)
class Workload:
    train_scale: int  # multiplier on the generator's default train counts
    batch_size: int
    hidden: tuple
    students: tuple  # VARIANTS keys, baseline first
    log_steps: bool  # students write a JSONL record per step


WORKLOADS = {
    "paper-distill": Workload(1, 64, (), ("baseline", "gpd", "lcd", "combined"), True),
    "wide-distill": Workload(4, 256, (64,), ("baseline", "combined"), False),
}


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports no numbers."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def import_package():
    """Import conceptdistill from this checkout's sources; seconds spent importing."""
    if not (SRC / "conceptdistill" / "__init__.py").is_file():
        sys.exit(f"perfbench: package sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    package = importlib.import_module("conceptdistill")
    for name in MODULES:
        importlib.import_module(f"conceptdistill.{name}")
    seconds = time.perf_counter() - t0
    if Path(package.__file__).resolve().parent != SRC / "conceptdistill":
        sys.exit(f"perfbench: imported conceptdistill from {package.__file__}, not {SRC}")
    return package, seconds


def environment(seeds) -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # NumPy < 1.25 has no dict mode
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pin": {k: os.environ.get(k) for k in THREAD_PIN},
        "seeds": list(seeds),
    }


def generator_config(cd, workload: Workload, seed: int, tiny: bool):
    gen = cd.synthetic.GeneratorConfig(seed=seed)
    for modality in gen.counts:
        for split, counts in gen.counts[modality].items():
            scale = workload.train_scale if split == "train" else 1
            if tiny:
                counts[:] = [max(2, c * scale // 10) for c in counts]
            else:
                counts[:] = [c * scale for c in counts]
    return gen


def train_config(cd, workload: Workload, seed: int, variant: str | None, tiny: bool):
    """Teacher config when ``variant`` is None, else the named student's."""
    lr, epochs = (TEACHER_LR, TEACHER_EPOCHS) if variant is None else (STUDENT_LR, STUDENT_EPOCHS)
    alpha, beta = VARIANTS[variant or "baseline"]
    return cd.train.TrainConfig(
        learning_rate=lr, epochs=1 if tiny else epochs, seed=seed,
        batch_size=workload.batch_size, encoder_hidden=workload.hidden,
        distill=cd.losses.DistillConfig(alpha=alpha, beta=beta, tau=TAU),
    )


def steps_of(config, n_train: int) -> int:
    return config.epochs * max(1, n_train // config.batch_size)


@dataclass
class Record:
    """Everything one run measures; times are (normalised, raw) seconds."""

    setup_s: list = field(default_factory=list)
    pass_s: list = field(default_factory=list)
    traced_pass_s: list = field(default_factory=list)
    run_s: dict = field(default_factory=dict)  # teacher or student variant -> times per run
    train_s: list = field(default_factory=lambda: [0.0, 0.0])
    steps: int = 0
    traced_steps: int = 0
    attempted: int = 0
    failed: int = 0
    f1: dict = field(default_factory=dict)  # (seed, model) -> test macro P-R F1, first pass

    def attempt(self, fn):
        """Run one training; a raise counts as a failed run and returns None."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # one failed training must not abort the workload
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def setup(cd, workload, seeds, tmp: Path, tiny: bool, rec: Record, clock: Clock):
    """Generate and round-trip each seed's dataset, at least MIN_SETUPS times in all."""
    data = {}
    n = max(MIN_SETUPS, len(seeds))
    for i in range(n):
        seed = seeds[i % len(seeds)]
        start = clock.calibrate()
        ds, pool = cd.synthetic.generate(generator_config(cd, workload, seed, tiny))
        directory = tmp / f"data-{i}"
        cd.synthetic.write_dataset(ds, directory)
        loaded = cd.synthetic.read_dataset(directory)
        rec.setup_s.append(elapsed(start, clock.calibrate()))
        check(loaded == ds, f"seed {seed}: dataset read back differs from the generated one")
        if seed in data:
            check(loaded == data[seed][0], f"seed {seed}: generate is not deterministic")
        else:
            data[seed] = (loaded, pool)
    return data


def evaluate_f1(cd, span, params, pool, ds, modality: str) -> float:
    with span("bench.test_eval"):
        x, y = ds.split_arrays(modality, "test")
        _, pred = cd.model.forward(params, x, pool)
        report = cd.metrics.macro_report(
            pred.probabilities.data, pred.predicted_class, y, params.num_classes)
    f1 = 100.0 * report.macro["pr_f1"]
    check(0.0 <= f1 <= 100.0, f"test macro P-R F1 {f1!r} outside [0, 100]")
    return f1


def experiment(cd, workload, seed, ds, pool, tmp: Path, tiny, rec: Record, span, first,
               clock: Clock):
    """Teacher, checkpoint round trip, then every student of the workload, for one seed."""
    n_teacher = len(ds.split_arrays("teacher", "train")[1])
    n_student = len(ds.split_arrays("student", "train")[1])
    f1 = {}

    def timed(kind, config, n_train, fn):
        start = clock.calibrate()
        out = rec.attempt(fn)
        took = elapsed(start, clock.calibrate())
        if out is not None:
            rec.run_s.setdefault(kind, []).append(took)
            rec.train_s = [a + b for a, b in zip(rec.train_s, took)]
            rec.steps += steps_of(config, n_train)
        return out

    tcfg = train_config(cd, workload, seed, None, tiny)
    with span("bench.teacher"):
        teacher = timed("teacher", tcfg, n_teacher,
                        lambda: cd.train.pretrain_teacher(tcfg, ds, pool))
    if teacher is not None:
        f1["teacher"] = evaluate_f1(cd, span, teacher, pool, ds, "teacher")
        saved_hash = teacher.params_hash()
        with span("bench.checkpoint_roundtrip"):
            path = tmp / f"teacher-{seed}.json"
            cd.model.save_checkpoint(teacher, path)
            teacher = cd.model.load_checkpoint(path, pool)
        check(teacher.params_hash() == saved_hash,
              f"seed {seed}: reloaded teacher hash differs from the saved one")
        check(teacher.frozen, f"seed {seed}: reloaded teacher is not frozen")

    for variant in workload.students:
        config = train_config(cd, workload, seed, variant, tiny)
        log = tmp / f"student-{seed}-{variant}.jsonl" if workload.log_steps else None
        if variant != "baseline" and teacher is None:
            rec.attempted += 1  # its teacher failed, so this run fails too
            rec.failed += 1
            continue
        with span(f"bench.student:{variant}"):
            student = timed(variant, config, n_student, lambda: cd.train.train_student(
                config, ds, pool, teacher=None if variant == "baseline" else teacher,
                log_path=log))
        if student is not None:
            f1[variant] = evaluate_f1(cd, span, student, pool, ds, "student")

    if teacher is not None:
        check(teacher.params_hash() == saved_hash,
              f"seed {seed}: teacher parameters changed during distillation")
    for model, value in f1.items():
        if first:
            rec.f1[(seed, model)] = value
        else:
            check(rec.f1.get((seed, model)) == value,
                  f"seed {seed}: {model} F1 {value} differs from the first repetition")


def quality(rec: Record, seeds) -> dict:
    def mean_of(model):
        return _mean([rec.f1[(s, model)] for s in seeds if (s, model) in rec.f1])

    return {
        "test_macro_prf1_teacher": mean_of("teacher"),
        "test_macro_prf1_baseline": mean_of("baseline"),
        "test_macro_prf1_distill": mean_of("combined"),
        "distill_gain_prf1": _mean([rec.f1[(s, "combined")] - rec.f1[(s, "baseline")]
                                    for s in seeds
                                    if (s, "combined") in rec.f1 and (s, "baseline") in rec.f1]),
    }


# Public names of conceptdistill.train, called once or more per training step,
# after which the clock may recalibrate; the first one found is used.
STEP_HOOKS = ("adamw_step", "forward")


def recalibrate_between_steps(cd, clock: Clock):
    """Let ``clock`` recalibrate inside trainings; returns (policy, undo).

    The policy names the hook, so a change of policy between two commits
    shows in their results. Traced repetitions leave this off, so no kernel
    time lands inside a span.
    """
    for name in STEP_HOOKS:
        hook = getattr(cd.train, name, None)
        if callable(hook):
            break
    else:
        return "calibrate at interval ends only", lambda: None

    def hook_then_calibrate(*args, **kwargs):
        out = hook(*args, **kwargs)
        clock.calibrate_if_stale()
        return out

    setattr(cd.train, name, hook_then_calibrate)
    return (f"recalibrate after train.{name} once {RECALIBRATE_S:g} s have passed",
            lambda: setattr(cd.train, name, hook))


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            out: Path = OUT) -> dict:
    """One benchmark run: metric values, run counts, check outcome and environment.

    ``tiny`` shrinks the data and runs one epoch, for the smoke test.
    """
    cd, import_s = import_package()
    clock = Clock(SPEC["reference_kernel_nominal_s"])
    clock.calibrate()
    import_s = (import_s * clock.scale, import_s)  # taken before the first calibration
    workload = WORKLOADS[name]
    k = SPEC["seeds_per_run"]
    seeds = list(range(seed * k, seed * k + k))
    rec = Record()
    tracer = Tracer() if trace else None
    result = {"correct": False, "values": {}, "extra": {}, "environment": environment(seeds)}
    out.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=out, prefix="tmp-") as tmp_name:
            tmp = Path(tmp_name)
            if tracer:
                tracer.install(cd)
            try:
                data = setup(cd, workload, seeds, tmp, tiny, rec, clock)
            finally:
                if tracer:
                    tracer.uninstall()
            loop_start = time.perf_counter()
            while True:
                # with tracing on, untraced and traced repetitions alternate
                traced = tracer is not None and len(rec.pass_s) > len(rec.traced_pass_s)
                if traced:
                    tracer.install(cd)
                else:
                    clock_policy, restore_step = recalibrate_between_steps(cd, clock)
                span = tracer.span if traced else (lambda _name: nullcontext())
                pass_start, steps_before = clock.calibrate(), rec.steps
                try:
                    for s in seeds:
                        with span("bench.experiment"):
                            ds, pool = data[s]
                            experiment(cd, workload, s, ds, pool, tmp, tiny, rec, span,
                                       first=not rec.pass_s, clock=clock)
                finally:
                    if traced:
                        tracer.uninstall()
                    else:
                        restore_step()
                took = elapsed(pass_start, clock.calibrate())
                (rec.traced_pass_s if traced else rec.pass_s).append(took)
                if traced:
                    rec.traced_steps += rec.steps - steps_before
                done = time.perf_counter() - loop_start
                enough = not tracer or rec.traced_pass_s
                longest = max(raw for _, raw in rec.pass_s + rec.traced_pass_s)
                if enough and done + longest > seconds:
                    break
        if tracer:
            # a missing or never-called adamw_step is listed as unresolved
            traced_steps = sum(1 for s in tracer.spans if s[0] == "train.adamw_step")
            check(rec.failed > 0 or traced_steps in (0, rec.traced_steps),
                  f"traced {traced_steps} optimizer steps, expected {rec.traced_steps}")
        divergence = clock.divergence()
        limit = clock_limit()
        if divergence is not None and abs(divergence) > limit:
            raise CheckFailed(
                f"clock unresolved: the reference kernel ran {divergence:+.1%} slower inside "
                f"trainings than between them (limit {limit:.0%}), so the program's times "
                "cannot be told from machine drift")
    except CheckFailed as e:
        print(f"perfbench: CHECK FAILED: {e}", file=sys.stderr)
        return {**result, "attempted": max(1, rec.attempted), "failed": rec.failed}

    def timings(i):
        """Time metrics from reading i of every interval: 0 normalised, 1 raw."""
        def med(samples):
            return _median([t[i] for t in samples] if samples else None)

        return {
            "setup_s": import_s[i] + med(rec.setup_s),
            "experiment_s": med(rec.pass_s),
            "train_steps_per_s": rec.steps / rec.train_s[i] if rec.train_s[i] else 0.0,
            "teacher_pretrain_s": med(rec.run_s.get("teacher")),
            "student_baseline_s": med(rec.run_s.get("baseline")),
            # the distilled variants differ ~2x in cost, so a median over their
            # mix would jump between modes; average the per-variant medians
            "student_distill_s": _mean([med(rec.run_s.get(v)) for v in workload.students
                                        if v != "baseline"]),
        }

    values = {
        **timings(0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_runs_frac": rec.failed / rec.attempted,
        **quality(rec, seeds),
    }
    extra = {"passes": len(rec.pass_s), "import_s": import_s,
             "clock": {"policy": clock_policy, "divergence": divergence, "limit": limit,
                       "kernel_s": clock.kernel_s},
             "setup_samples_s": rec.setup_s,
             "pass_s": rec.pass_s, "run_s": rec.run_s,
             "f1": {f"{s}:{m}": v for (s, m), v in sorted(rec.f1.items())}}
    if tracer:
        spans_path = out / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        values.update(layer_metrics(tracer.spans, len(seeds) * len(rec.traced_pass_s)))
        values["trace.overhead_s"] = (_median([t[0] for t in rec.traced_pass_s])
                                      - values["experiment_s"])
        names = unresolved(tracer)
        values["trace.unresolved_names"] = float(len(names))
        extra.update(traced_pass_s=rec.traced_pass_s, unresolved=names,
                     spans_file=str(spans_path))
    return {**result, "correct": True, "attempted": rec.attempted, "failed": rec.failed,
            "values": values, "raw_wall_values": timings(1), "extra": extra}


def _median(values):
    return statistics.median(values) if values else float("nan")


def _mean(values):
    return statistics.fmean(values) if values else float("nan")


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def clock_limit() -> float:
    """Largest kernel divergence a run accepts: the bound on ``experiment_s``."""
    return next(m["bound"] for m in load_benchmark()["end_to_end"]
                if m["name"] == "experiment_s")


def result_line(result: dict, table: list[dict]) -> dict:
    """The last stdout line: run counts and every metric of ``table`` with its unit."""
    values = result["values"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in table if m["name"] in values}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def arg_parser(bench: dict) -> argparse.ArgumentParser:
    """The command line; the benchmark protocol passes all four options."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=SPEC["default_seed"])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap


def main(argv=None) -> int:
    bench = load_benchmark()
    args = arg_parser(bench).parse_args(argv)

    table = bench["per_layer" if args.trace else "end_to_end"]
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    values = result["values"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"env={json.dumps(result['environment'], sort_keys=True)}")
    for m in table:
        if m["name"] in values:
            print(f"{m['name']:44s} {values[m['name']]:14.6f} {m['unit']}")
    for name in sorted(set(values) - {m["name"] for m in table}):
        print(f"{name:44s} {values[name]:14.6f} (not in this metric set)")
    for name, value in result.get("raw_wall_values", {}).items():
        print(f"{name + ' (raw wall clock)':44s} {value:14.6f}")
    if "clock" in result["extra"]:
        clock = result["extra"]["clock"]
        print(f"# clock: {clock['policy']}; kernel slower inside trainings than "
              f"between them by {clock['divergence']} (limit {clock['limit']})")
    for name in result["extra"].get("unresolved", []):
        print(f"trace: {name}")
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result_line(result, table)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
