"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of ``conceptdistill`` by
attribute, from outside the package: a function is replaced in every
package module that holds it under its public name, because modules such as
``conceptdistill.train`` import names like ``forward`` and look them up in
their own namespace at call time. A method is replaced on its class. No
private name of the package is read, so refactors that keep the public names
keep the trace working; a name that disappears is listed, not silently lost.

Spans live in memory while the run goes on and are written out only when it
ends. Calls into autodiff's public operations are counted, not timed: each
outermost operation call adds one to the innermost open span, which keeps the
tracer cheap enough to sit under every training step.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager

# Wrapped callables as (module, attribute, span label); "Class.method"
# names a method.
WRAPPED = (
    ("synthetic", "generate", "synthetic.generate"),
    ("synthetic", "write_dataset", "synthetic.write_dataset"),
    ("synthetic", "read_dataset", "synthetic.read_dataset"),
    ("synthetic", "SyntheticDataset.split_arrays", "synthetic.split_arrays"),
    ("concepts", "ConceptPool.embedding_matrix", "concepts.embedding_matrix"),
    ("model", "forward", "model.forward"),
    ("model", "cross_entropy", "model.cross_entropy"),
    ("model", "ModelBinding.__init__", "model.binding"),
    ("model", "ModelParams.params_hash", "model.params_hash"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("losses", "class_prototypes", "losses.class_prototypes"),
    ("losses", "gpd_loss", "losses.gpd_loss"),
    ("losses", "lcd_loss", "losses.lcd_loss"),
    ("losses", "total_loss", "losses.total_loss"),
    ("autodiff", "backward", "autodiff.backward"),
    ("train", "pretrain_teacher", "train.pretrain_teacher"),
    ("train", "train_student", "train.train_student"),
    ("train", "EpochStream.batch", "train.epoch_stream_batch"),
    ("train", "adamw_step", "train.adamw_step"),
    ("train", "evaluate_macro_pr_f1", "train.evaluate_macro_pr_f1"),
    ("train", "JsonlLogger.write", "train.log_write"),
    ("metrics", "macro_report", "metrics.macro_report"),
)

# Public autodiff functions that are not operations on matrices.
NOT_OPS = frozenset({"as_matrix", "backward", "finite_diff_grad"})

RUN_SPANS = ("train.pretrain_teacher", "train.train_student")
EVAL_SPANS = ("train.evaluate_macro_pr_f1", "bench.test_eval")

# Fields of one span record.
NAME, PARENT, START, END, CHILD_S, OPS, INFO = range(7)


class Tracer:
    """Records nested spans and autodiff operation counts in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_depth = 0
        self.missing: list[str] = []
        self.hook_errors: set[str] = set()
        self.patches: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [name, parent, time.perf_counter(), 0.0, 0.0, 0, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self) -> None:
        span = self.spans[self.stack.pop()]
        span[END] = time.perf_counter()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_S] += span[END] - span[START]

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close()

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    # --- wrapping ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every name in WRAPPED and every autodiff operation of ``package``."""
        modules = list({mod: getattr(package, mod) for mod, _, _ in WRAPPED}.values())
        self.missing = []
        for mod_name, attr, label in WRAPPED:
            module = getattr(package, mod_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._span_wrapper(label, original)
            if owner_name:
                self._patch(owner, name, wrapper)
                continue
            for m in modules:
                if getattr(m, name, None) is original:
                    self._patch(m, name, wrapper)
        autodiff = package.autodiff
        for attr in dir(autodiff):
            fn = getattr(autodiff, attr)
            if (attr.startswith("_") or attr in NOT_OPS or isinstance(fn, type)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != autodiff.__name__):
                continue
            wrapper = self._op_wrapper(fn)
            for m in modules:
                if getattr(m, attr, None) is fn:
                    self._patch(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, label: str, fn):
        tracer = self
        post = POST_HOOKS.get(label)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label
            if label == "model.forward":
                model = args[0] if args else kwargs.get("model")
                name = _forward_kind(tracer.parent_name(), model)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if post is not None:
                try:
                    span[INFO] = post(signature.bind(*args, **kwargs).arguments, result)
                except (KeyError, AttributeError, TypeError, IndexError):
                    tracer.hook_errors.add(label)
            return result

        return wrapper

    def _op_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_depth == 0 and tracer.stack:
                tracer.spans[tracer.stack[-1]][OPS] += 1
            tracer.op_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.op_depth -= 1

        return wrapper

    # --- output --------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT],
                    "start": s[START], "end": s[END],
                    "self_s": (s[END] - s[START]) - s[CHILD_S],
                    "ops": s[OPS], "info": s[INFO],
                }))
                f.write("\n")


def _forward_kind(parent: str | None, model) -> str:
    """Split forward spans by caller: evaluation, a bound (trained) model, or a frozen teacher."""
    if parent in EVAL_SPANS:
        return "model.forward:eval"
    params = getattr(model, "params", None)
    if getattr(model, "tape", None) is not None and params is not None:
        return "model.forward:student" if params.modality == "student" else "model.forward:pretrain"
    return "model.forward:teacher"


def _lcd_info(arguments, result):
    # anchors offered, anchors skipped
    return [len(arguments["student_labels"]), int(result[1])]


def _gpd_info(arguments, result):
    a, b = arguments["a"], arguments["b"]
    return [int((a.present & b.present).sum()), len(a.present)]  # shared, classes


POST_HOOKS = {"losses.lcd_loss": _lcd_info, "losses.gpd_loss": _gpd_info}


# --- analysis ----------------------------------------------------------------


def layer_metrics(spans, n_experiments: int) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced passes.

    Step metrics divide by optimizer steps, counted as ``adamw_step`` calls
    made directly by a training run. Work under an evaluation span counts as
    evaluation, not as step work.
    """
    n = len(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def mean_of(name, scale):
        idx = by_name.get(name, [])
        return scale * sum(dur(i) for i in idx) / len(idx) if idx else 0.0

    # nearest enclosing training run or evaluation span of every span
    ctx = [-1] * n
    for i, s in enumerate(spans):
        if s[NAME] in RUN_SPANS or s[NAME] in EVAL_SPANS:
            ctx[i] = i
        elif s[PARENT] >= 0:
            ctx[i] = ctx[s[PARENT]]
    incl_ops = [s[OPS] for s in spans]
    for i in range(n - 1, -1, -1):
        if spans[i][PARENT] >= 0:
            incl_ops[spans[i][PARENT]] += incl_ops[i]

    runs = by_name.get("train.pretrain_teacher", []) + by_name.get("train.train_student", [])
    steps = {r: 0 for r in runs}
    step_ops = {r: 0 for r in runs}
    eval_s = {r: 0.0 for r in runs}
    emb_calls = 0
    for i, s in enumerate(spans):
        c = ctx[i]
        if c in steps:
            step_ops[c] += s[OPS]
            if s[NAME] == "train.adamw_step":
                steps[c] += 1
            elif s[NAME] == "concepts.embedding_matrix":
                emb_calls += 1
        if s[NAME] in EVAL_SPANS and s[PARENT] in steps:
            eval_s[s[PARENT]] += dur(i)

    def variant(run):
        parent = spans[run][PARENT]
        return spans[parent][NAME].split(":")[-1] if parent >= 0 else ""

    groups = {
        "teacher": by_name.get("train.pretrain_teacher", []),
        "ce": [r for r in by_name.get("train.train_student", []) if variant(r) == "baseline"],
        "distill": [r for r in by_name.get("train.train_student", [])
                    if variant(r) not in ("baseline", "")],
    }

    def per_step_ms(group):
        total = sum(steps[r] for r in group)
        return 1e3 * sum(dur(r) - eval_s[r] for r in group) / total if total else 0.0

    def ops_per_step(group):
        total = sum(steps[r] for r in group)
        return sum(step_ops[r] for r in group) / total if total else 0.0

    all_steps = sum(steps.values())
    lcd = [spans[i][INFO] for i in by_name.get("losses.lcd_loss", []) if spans[i][INFO]]
    gpd = [spans[i][INFO] for i in by_name.get("losses.gpd_loss", []) if spans[i][INFO]]
    lcd_calls = by_name.get("losses.lcd_loss", [])
    per_exp = 1.0 / n_experiments if n_experiments else 0.0

    return {
        "losses.lcd_us": mean_of("losses.lcd_loss", 1e6),
        "autodiff.lcd_ops_per_call":
            sum(incl_ops[i] for i in lcd_calls) / len(lcd_calls) if lcd_calls else 0.0,
        "losses.gpd_us": mean_of("losses.gpd_loss", 1e6),
        "losses.class_prototypes_us": mean_of("losses.class_prototypes", 1e6),
        "losses.total_loss_us": mean_of("losses.total_loss", 1e6),
        "losses.lcd_active_anchor_frac":
            1.0 - sum(x[1] for x in lcd) / sum(x[0] for x in lcd) if lcd else 0.0,
        "losses.gpd_shared_class_frac":
            sum(x[0] for x in gpd) / sum(x[1] for x in gpd) if gpd else 0.0,
        "model.forward_teacher_us": mean_of("model.forward:teacher", 1e6),
        "model.forward_teacher_calls":
            len(by_name.get("model.forward:teacher", [])) * per_exp,
        "model.forward_student_us": mean_of("model.forward:student", 1e6),
        "model.forward_pretrain_us": mean_of("model.forward:pretrain", 1e6),
        "model.cross_entropy_us": mean_of("model.cross_entropy", 1e6),
        "model.binding_us": mean_of("model.binding", 1e6),
        "model.forward_eval_us": mean_of("model.forward:eval", 1e6),
        "model.checkpoint_roundtrip_ms": mean_of("bench.checkpoint_roundtrip", 1e3),
        "model.params_hash_calls": len(by_name.get("model.params_hash", [])) * per_exp,
        "autodiff.backward_us": mean_of("autodiff.backward", 1e6),
        "autodiff.ops_per_ce_step": ops_per_step(groups["ce"]),
        "autodiff.ops_per_distill_step": ops_per_step(groups["distill"]),
        "concepts.embedding_matrix_us": mean_of("concepts.embedding_matrix", 1e6),
        "concepts.embedding_matrix_calls_per_step": emb_calls / all_steps if all_steps else 0.0,
        "train.teacher_step_ms": per_step_ms(groups["teacher"]),
        "train.ce_step_ms": per_step_ms(groups["ce"]),
        "train.distill_step_ms": per_step_ms(groups["distill"]),
        "train.loop_self_ms_per_step":
            1e3 * sum(dur(r) - spans[r][CHILD_S] for r in runs) / all_steps if all_steps else 0.0,
        "train.epoch_stream_batch_us": mean_of("train.epoch_stream_batch", 1e6),
        "train.adamw_step_us": mean_of("train.adamw_step", 1e6),
        "train.log_write_us": mean_of("train.log_write", 1e6),
        "train.evaluate_ms": mean_of("train.evaluate_macro_pr_f1", 1e3),
        "metrics.macro_report_ms": mean_of("metrics.macro_report", 1e3),
        "synthetic.generate_ms": mean_of("synthetic.generate", 1e3),
        "synthetic.write_dataset_ms": mean_of("synthetic.write_dataset", 1e3),
        "synthetic.read_dataset_ms": mean_of("synthetic.read_dataset", 1e3),
        "synthetic.split_arrays_ms": mean_of("synthetic.split_arrays", 1e3),
        "synthetic.split_arrays_calls": len(by_name.get("synthetic.split_arrays", [])) * per_exp,
    }


def uncalled(spans) -> list[str]:
    """Wrapped names that recorded no call."""
    seen = {s[NAME].split(":")[0] for s in spans}
    return [f"{mod}.{attr}" for mod, attr, label in WRAPPED if label not in seen]


def unresolved(tracer: Tracer) -> list[str]:
    """Wrapped names the trace could not cover: not found, never called, or unreadable."""
    names = [f"missing: {m}" for m in tracer.missing]
    names += [f"no calls: {m}" for m in uncalled(tracer.spans) if m not in tracer.missing]
    names += [f"hook failed: {label}" for label in sorted(tracer.hook_errors)]
    return names
