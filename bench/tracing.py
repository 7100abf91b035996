"""In-memory span tracer that wraps epicast's public functions from outside.

The tracer replaces each traced function with a wrapper that records a span
(name, start, end, parent span, run id) and rebinds the wrapper wherever
epicast holds the original: in its defining module and in every epicast
module that imported it by name (``trainer`` and ``forecaster`` import the
tokenizers, adapters and ``backbone_forward`` that way, ``branches`` imports
``build_prompted_graph``).  Methods are replaced on their class.  Nothing
under ``src/`` is edited; ``uninstall`` puts every original back.

Spans stay in memory until the run ends.  A span's self time is its duration
minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import resource
import sys
import time
from collections import defaultdict

# (metric prefix, module under epicast, attribute path inside that module)
TRACED = (
    ("prompts.build_prompted_graph", "prompts", "build_prompted_graph"),
    ("branches.epi_tokenize", "branches", "epi_tokenize"),
    ("branches.mob_tokenize", "branches", "mob_tokenize"),
    ("branches.stack_tokens", "branches", "stack_tokens"),
    ("branches.epi_adapt", "branches", "epi_adapt"),
    ("branches.mob_adapt", "branches", "mob_adapt"),
    ("backbone.backbone_forward", "backbone", "backbone_forward"),
    ("tensor.backward", "tensor", "Tensor.backward"),
    ("trainer.training_loss", "trainer", "training_loss"),
    ("trainer.validation_loss", "trainer", "validation_loss"),
    ("trainer.compute_loss", "trainer", "compute_loss"),
    ("trainer.Adam.step", "trainer", "Adam.step"),
    ("forecaster.forecast", "forecaster", "forecast"),
    ("data.synth_sir_tables", "data", "synth_sir_tables"),
    ("data.build_dataset", "data", "build_dataset"),
    ("data.window_features", "data", "window_features"),
    ("model.save_checkpoint", "model", "save_checkpoint"),
    ("model.load_checkpoint", "model", "load_checkpoint"),
    ("evalharness.baseline_predict", "evalharness", "baseline_predict"),
    ("evalharness.metric_report", "evalharness", "metric_report"),
)

# Counters the tracer derives from the arguments and results of traced calls,
# plus the two the benchmark adds (tensor.gc_collections is read from the
# interpreter, model.checkpoint_bytes from the checkpoint files).
COUNTERS = (
    ("prompts.block_bytes", "bytes"),
    ("backbone.tokens", "count"),
    ("tensor.tape_nodes", "count"),
    ("tensor.gc_collections", "count"),
    ("training_loss.rss_rise_mb", "MB"),
    ("backward.rss_rise_mb", "MB"),
    ("validation_loss.rss_rise_mb", "MB"),
    ("forecast.rss_rise_mb", "MB"),
    ("forecaster.patches_tokenized", "count"),
    ("forecaster.useful_patch_ratio", "ratio"),
    ("model.checkpoint_bytes", "bytes"),
)

# Phases whose rise in the process's peak RSS is recorded.
RSS_PHASES = {
    "trainer.training_loss": "training_loss",
    "tensor.backward": "backward",
    "trainer.validation_loss": "validation_loss",
    "forecaster.forecast": "forecast",
}


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name, _, _ in TRACED:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
    out.extend(COUNTERS)
    out.append(("trace.overhead_s", "s"))
    return out


def count_tape_nodes(loss) -> int:
    """Distinct tensors reachable from `loss` through recorded inputs."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._prev)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.run_id = "setup"
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._gc2_start = 0

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "epicast" or n.startswith("epicast.")]
        for name, mod_name, attr in TRACED:
            owner = importlib.import_module(f"epicast.{mod_name}")
            if "." in attr:  # a method: replace it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapped)
        self._gc2_start = gc.get_stats()[2]["collections"]

    def _rebind(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        if not self._restore:
            return
        self.counters["tensor.gc_collections"] = gc.get_stats()[2]["collections"] - self._gc2_start
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- spans ------------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        rss_phase = RSS_PHASES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._before(name, args, kwargs)
            rss0 = maxrss_mb() if rss_phase else 0.0
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._open[-1] if tracer._open else -1, tracer.run_id]
            tracer.spans.append(span)
            tracer._open.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._open.pop()
            if rss_phase:
                tracer.counters[f"{rss_phase}.rss_rise_mb"] += maxrss_mb() - rss0
            if name == "trainer.training_loss":
                tracer.counters["tensor.tape_nodes"] = count_tape_nodes(result)
            return result

        return traced

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def _before(self, name, args, kwargs) -> None:
        c = self.counters
        if name == "prompts.build_prompted_graph":
            w, n, _ = args[0].shape
            c["prompts.block_bytes"] += (w * n) ** 2 * 8  # computed, not measured
        elif name == "backbone.backbone_forward":
            P, N, _ = args[0].data.shape
            c["backbone.tokens"] += P * N
        elif name == "branches.epi_tokenize" and self._inside("forecaster.forecast"):
            c["forecaster.patches_tokenized"] += 1
        elif name == "forecaster.forecast":
            steps = kwargs["steps"] if "steps" in kwargs else args[3]
            c["forecaster.new_patches"] += steps

    # -- results ----------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        out = {name: 0 for name, _, _ in TRACED}
        for span in self.spans:
            out[span[0]] += 1
        return out

    def metrics(self) -> dict[str, float]:
        """calls and self time per traced function, then the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {name: 0.0 for name, _, _ in TRACED}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
        out: dict[str, float] = {}
        for name, n in self.calls().items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self_s[name]
        tokenized = self.counters["forecaster.patches_tokenized"]
        new = self.counters["forecaster.new_patches"]
        for key, _ in COUNTERS:
            out[key] = self.counters[key]
        out["forecaster.useful_patch_ratio"] = new / tokenized if tokenized else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
