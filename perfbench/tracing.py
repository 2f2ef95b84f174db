"""Layer-by-layer tracing of aggnet from outside the package.

The tracer swaps timing wrappers in at the names aggnet's callers look
up: module attributes such as ``aggregation._affinity_moments`` (and
every other aggnet module that imported the same function by name),
class methods such as ``HybridLayer.forward``, and the check table
``gradcheck.MODULES``.  ``uninstall`` puts every original back, so the
untraced runs execute the package unmodified.

Spans (name, parent, start, end) stay in memory and are written out
when the run ends.  A span's self time is its duration minus the
durations of its direct child spans.  A boundary that the package no
longer has raises :class:`BoundaryMissing`, so a per-layer metric is
never silently reported as zero.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict

# ops functions every layer calls; each is traced as the span "ops.<name>"
OPS_FUNCTIONS = (
    "as_tensor", "check_finite", "softplus", "log_softplus", "sigmoid",
    "sigmoid_softplus_ratio", "softmax", "log_softmax", "matmul",
)

GRADCHECKS = (
    "elementwise", "linear", "conv", "pool", "loss",
    "fmean", "gaussian", "hybrid", "full_model",
)

# step-time percentiles tried, highest first, for the reported tail
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)

# every per-layer metric the traced run reports, with its unit
PER_LAYER_UNITS = {
    "aggregation.kernel.s": "s",
    "aggregation.kernel.calls": "count",
    "aggregation.kernel.rows": "count",
    "aggregation.kernel.pairs_per_s": "1/s",
    "aggregation.hybrid.forward.s": "s",
    "aggregation.hybrid.forward.self_s": "s",
    "aggregation.hybrid.backward.s": "s",
    "aggregation.fmean_layer.s": "s",
    "aggregation.gaussian_layer.s": "s",
    "layers.conv.forward.s": "s",
    "layers.conv.backward.s": "s",
    "layers.linear.forward.s": "s",
    "layers.linear.backward.s": "s",
    "layers.pool.s": "s",
    "layers.relu.s": "s",
    "layers.softmax_xent.s": "s",
    "layers.calls": "count",
    "model.forward_train.s": "s",
    "model.forward_eval.s": "s",
    "model.backward.s": "s",
    "experiment.step.count": "count",
    "experiment.step.p50_s": "s",
    "experiment.step.tail_pct": "pct",
    "experiment.step.tail_s": "s",
    "experiment.train.s": "s",
    "experiment.evaluate.s": "s",
    "experiment.validation_loss.s": "s",
    "optim.adam_step.s": "s",
    "optim.adam_step.calls": "count",
    "optim.clip.s": "s",
    "optim.clip.fired_frac": "frac",
    "data.make_synthetic.s": "s",
    "data.batches.s": "s",
    "data.add_noise.s": "s",
    "checkpoint.save.s": "s",
    "checkpoint.save.bytes": "bytes",
    "ops.calls": "count",
    "ops.s": "s",
    **{f"gradcheck.{name}.s": "s" for name in GRADCHECKS},
    "trace.overhead_frac": "frac",
}


class BoundaryMissing(RuntimeError):
    """A name the tracer wraps no longer exists in the package."""


def _argument(fn, name):
    """Return a getter for argument ``name`` of calls to ``fn``."""
    sig = inspect.signature(fn)
    if name not in sig.parameters:
        raise BoundaryMissing(f"{fn.__qualname__} has no argument {name!r}")

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def _aggnet_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "aggnet" or key.startswith("aggnet."))]


class Tracer:
    """In-memory spans and counters for one benchmark run.

    ``phase`` tags the spans recorded from now on; the runner uses
    "setup" while the workload is built and "unit" around traced units.
    """

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.phases: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.steps: list[tuple[str, float]] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list = []
        self._step_start = None

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value: float = 1.0):
        self.counters[(self.phase, name)] += value

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of (args, kwargs) giving one;
        ``after(args, kwargs, result)`` runs once the span has closed.
        """
        tracer = self
        name_of = name if callable(name) else (lambda args, kwargs: name)

        def traced(*args, **kwargs):
            i = len(tracer.names)
            tracer.names.append(name_of(args, kwargs))
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.phases.append(tracer.phase)
            tracer.ends.append(0.0)
            tracer._stack.append(i)
            tracer.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.ends[i] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    # -- patching ----------------------------------------------------------

    def patch_function(self, module, attr, make):
        """Replace ``module.attr`` and every aggnet alias of the same object."""
        if not hasattr(module, attr):
            raise BoundaryMissing(f"{module.__name__}.{attr}")
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in _aggnet_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((setattr, mod, key, original))

    def patch_method(self, cls, attr, make):
        if attr not in vars(cls):
            raise BoundaryMissing(f"{cls.__name__}.{attr}")
        original = vars(cls)[attr]
        setattr(cls, attr, make(original))
        self._undo.append((setattr, cls, attr, original))

    def patch_item(self, container, key, value):
        original = container[key]
        container[key] = value
        self._undo.append((type(container).__setitem__, container, key, original))

    def uninstall(self):
        while self._undo:
            restore, owner, key, original = self._undo.pop()
            restore(owner, key, original)

    def install(self):
        """Wrap every layer boundary the per-layer metrics need."""
        from aggnet import (aggregation, checkpoint, data, experiment, gradcheck, layers,
                            model, ops, optim)

        span = self.span

        def kernel_span(kernel):
            z_of = _argument(kernel, "z")

            def after(args, kwargs, out):
                z = z_of(args, kwargs)
                n = z.shape[-1]
                self.count("kernel.rows", z.size // n)
                self.count("kernel.pairs", z.size * n)  # rows * n^2

            return span("aggregation.kernel", kernel, after)

        self.patch_function(aggregation, "_affinity_moments", kernel_span)
        for cls, label in ((aggregation.HybridLayer, "aggregation.hybrid"),
                           (layers.ConvLayer, "layers.conv"),
                           (layers.LinearLayer, "layers.linear")):
            for method in ("forward", "backward"):
                self.patch_method(cls, method,
                                  lambda f, n=f"{label}.{method}": span(n, f))
        for cls, label in ((aggregation.FMeanLayer, "aggregation.fmean_layer"),
                           (aggregation.GaussianSupportLayer, "aggregation.gaussian_layer"),
                           (layers.MaxPool2x2Layer, "layers.pool"),
                           (layers.ReLULayer, "layers.relu")):
            for method in ("forward", "backward"):
                self.patch_method(cls, method, lambda f, n=label: span(n, f))
        self.patch_function(layers, "softmax_xent", lambda f: span("layers.softmax_xent", f))
        for name in OPS_FUNCTIONS:
            self.patch_function(ops, name, lambda f, n=f"ops.{name}": span(n, f))

        # a train step runs from the forward(train=True) that starts it to
        # the end of the optimizer step that applies its gradients
        is_train = _argument(model.Model.forward, "train")

        def forward_name(args, kwargs):
            if is_train(args, kwargs):
                self._step_start = time.perf_counter()
                return "model.forward_train"
            return "model.forward_eval"

        def step_done(args, kwargs, out):
            if self._step_start is not None:
                self.steps.append((self.phase, time.perf_counter() - self._step_start))
                self._step_start = None

        self.patch_method(model.Model, "forward", lambda f: span(forward_name, f))
        self.patch_method(model.Model, "backward", lambda f: span("model.backward", f))
        self.patch_method(optim.Adam, "step", lambda f: span("optim.adam_step", f, step_done))

        def clip_counts(clip):
            grads_of = _argument(clip, "grads")
            max_norm_of = _argument(clip, "max_norm")

            def after(args, kwargs, out):
                norm2 = sum(float((g * g).sum()) for g in grads_of(args, kwargs))
                self.count("clip.fired", float(norm2 > max_norm_of(args, kwargs) ** 2))

            return span("optim.clip", clip, after)

        self.patch_function(optim, "clip_global_norm", clip_counts)

        for name in ("train", "evaluate", "validation_loss"):
            self.patch_function(experiment, name, lambda f, n=f"experiment.{name}": span(n, f))
        self.patch_function(data, "make_synthetic", lambda f: span("data.make_synthetic", f))
        self.patch_function(data, "add_noise", lambda f: span("data.add_noise", f))
        self.patch_function(data, "batches", self._traced_batches)

        def save_counts(save):
            path_of = _argument(save, "path")

            def after(args, kwargs, out):
                self.count("checkpoint.bytes", os.path.getsize(path_of(args, kwargs)))

            return span("checkpoint.save", save, after)

        self.patch_function(checkpoint, "save_checkpoint", save_counts)

        checks = {f"check_{name}" for name in GRADCHECKS}
        for entries in gradcheck.MODULES.values():
            for i, (label, fn) in enumerate(entries):
                short = getattr(fn, "__name__", "")
                if short not in checks:
                    raise BoundaryMissing(f"gradcheck check {label!r} ({short}) is not traced")
                self.patch_item(entries, i, (label, span(f"gradcheck.{short[6:]}", fn)))
        self.patch_function(gradcheck, "check_full_model",
                            lambda f: span("gradcheck.full_model", f))

    def _traced_batches(self, batches):
        """Wrap the batch generator so producing each batch is a span."""
        next_batch = self.span("data.batches", next)

        def traced(*args, **kwargs):
            it = iter(batches(*args, **kwargs))
            while True:
                try:
                    item = next_batch(it)
                except StopIteration:
                    return
                yield item

        return traced

    # -- reporting ---------------------------------------------------------

    def totals(self, phase: str):
        """Per span name: (calls, total seconds, self seconds) in ``phase``."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            if self.phases[i] != phase:
                continue
            dur = self.ends[i] - self.starts[i]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[i]
        return calls, total, own

    def per_layer(self, units: int, overhead_frac: float) -> dict[str, float]:
        """Every per-layer metric, per traced unit (set-up spans aside)."""
        if units < 1:
            raise ValueError("no traced unit ran")
        calls, total, own = self.totals("unit")
        _, setup_total, _ = self.totals("setup")

        def counter(name):
            return self.counters[("unit", name)]

        def per_unit(value):
            return value / units

        kernel_s = total["aggregation.kernel"]
        steps = sorted(s for phase, s in self.steps if phase == "unit")
        tail_pct, tail_s = 0.0, 0.0
        for pct in TAIL_PERCENTILES:
            if len(steps) * (1.0 - pct / 100.0) >= 10:
                tail_pct = pct
                tail_s = _percentile(steps, pct)
                break
        ops = [n for n in calls if n.startswith("ops.")]
        layer_spans = [n for n in calls if n.startswith("layers.")]
        m = {
            "aggregation.kernel.s": per_unit(kernel_s),
            "aggregation.kernel.calls": per_unit(calls["aggregation.kernel"]),
            "aggregation.kernel.rows": per_unit(counter("kernel.rows")),
            "aggregation.kernel.pairs_per_s": (counter("kernel.pairs") / kernel_s
                                               if kernel_s else 0.0),
            "aggregation.hybrid.forward.s": per_unit(total["aggregation.hybrid.forward"]),
            "aggregation.hybrid.forward.self_s": per_unit(own["aggregation.hybrid.forward"]),
            "aggregation.hybrid.backward.s": per_unit(total["aggregation.hybrid.backward"]),
            "aggregation.fmean_layer.s": per_unit(total["aggregation.fmean_layer"]),
            "aggregation.gaussian_layer.s": per_unit(total["aggregation.gaussian_layer"]),
            "layers.conv.forward.s": per_unit(total["layers.conv.forward"]),
            "layers.conv.backward.s": per_unit(total["layers.conv.backward"]),
            "layers.linear.forward.s": per_unit(total["layers.linear.forward"]),
            "layers.linear.backward.s": per_unit(total["layers.linear.backward"]),
            "layers.pool.s": per_unit(total["layers.pool"]),
            "layers.relu.s": per_unit(total["layers.relu"]),
            "layers.softmax_xent.s": per_unit(total["layers.softmax_xent"]),
            "layers.calls": per_unit(sum(calls[n] for n in layer_spans)),
            "model.forward_train.s": per_unit(total["model.forward_train"]),
            "model.forward_eval.s": per_unit(total["model.forward_eval"]),
            "model.backward.s": per_unit(total["model.backward"]),
            "experiment.step.count": per_unit(len(steps)),
            "experiment.step.p50_s": statistics.median(steps) if steps else 0.0,
            "experiment.step.tail_pct": tail_pct,
            "experiment.step.tail_s": tail_s,
            "experiment.train.s": per_unit(total["experiment.train"]),
            "experiment.evaluate.s": per_unit(total["experiment.evaluate"]),
            "experiment.validation_loss.s": per_unit(total["experiment.validation_loss"]),
            "optim.adam_step.s": per_unit(total["optim.adam_step"]),
            "optim.adam_step.calls": per_unit(calls["optim.adam_step"]),
            "optim.clip.s": per_unit(total["optim.clip"]),
            "optim.clip.fired_frac": (counter("clip.fired") / calls["optim.clip"]
                                      if calls["optim.clip"] else 0.0),
            "data.make_synthetic.s": setup_total["data.make_synthetic"],
            "data.batches.s": per_unit(total["data.batches"]),
            "data.add_noise.s": per_unit(total["data.add_noise"]),
            "checkpoint.save.s": per_unit(total["checkpoint.save"]),
            "checkpoint.save.bytes": per_unit(counter("checkpoint.bytes")),
            "ops.calls": per_unit(sum(calls[n] for n in ops)),
            "ops.s": per_unit(sum(own[n] for n in ops)),
            **{f"gradcheck.{name}.s": per_unit(total[f"gradcheck.{name}"]) for name in GRADCHECKS},
            "trace.overhead_frac": overhead_frac,
        }
        if set(m) != set(PER_LAYER_UNITS):
            raise RuntimeError(f"per-layer metrics out of step: {set(m) ^ set(PER_LAYER_UNITS)}")
        return m

    def write_spans(self, path):
        """One JSON array per span: [name, parent index, phase, start, end]."""
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps([name, self.parents[i], self.phases[i],
                                    self.starts[i], self.ends[i]]))
                f.write("\n")


def _percentile(sorted_values, pct):
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)
