"""Spans around the public calls into each drshift layer, recorded from outside.

A traced function is replaced, in every loaded ``drshift`` module namespace
that binds it, by a wrapper that times the call and counts it. Modules
import functions by name (``semisup`` and ``kde`` bind ``grad_source`` and
``predict_proba`` themselves), so patching only the defining module would
miss those calls. ``Tracer.install`` records the originals and ``uninstall``
puts them back.

A span's self time is its duration minus the time covered by the spans it
directly encloses, so nested layers are not counted twice.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass


@dataclass
class LayerStat:
    calls: int = 0
    rows: int = 0
    bytes: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _rows_of(arg):
    """Row count of an array, a Dataset or an (X, y) pair."""
    if isinstance(arg, tuple):
        arg = arg[0]
    shape = getattr(arg, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) else 1
    return len(arg)


def _rows_arg(index):
    def measure(tracer, stat, args, kwargs, result):
        stat.rows += _rows_of(args[index])

    return measure


def _rows_result(tracer, stat, args, kwargs, result):
    stat.rows += len(result)


def _file_bytes(tracer, stat, args, kwargs, result):
    stat.bytes += os.path.getsize(args[0])


def _text_bytes(tracer, stat, args, kwargs, result):
    stat.bytes += len(result.encode("utf-8"))


def _clamped(tracer, stat, args, kwargs, result):
    # density_chain_gradient(dom, X, theta, Phi, probs, tau_s, clamped)
    clamped = args[6]
    tracer.counters["density_samples"] += len(clamped)
    tracer.counters["density_clamped"] += int(clamped.sum())


def _pseudo(tracer, stat, args, kwargs, result):
    tracer.counters["n_pseudo"] += len(result)


# (defining module, function, span name, measure). Functions bound from scipy
# are traced only where drshift modules bind them, not inside scipy.
SPANS = (
    ("drshift.features", "feature_forward_batch", "features.forward", _rows_arg(1)),
    ("drshift.features", "feature_backward_batch", "features.backward", _rows_arg(1)),
    ("drshift.robust", "grad_source", "robust.grad_source", _rows_arg(1)),
    ("drshift.robust", "predict_proba", "robust.predict_proba", _rows_arg(1)),
    ("drshift.robust", "dual_objective", "robust.dual_objective", None),
    ("drshift.robust", "feature_constraint", "robust.feature_constraint", None),
    ("scipy.special", "softmax", "special.softmax", None),
    ("scipy.special", "logsumexp", "special.logsumexp", None),
    ("drshift.domain", "domain_ratios", "domain.ratios", _rows_arg(1)),
    ("drshift.domain", "bce_loss", "domain.bce_loss", None),
    ("drshift.domain", "bce_gradient_arrays", "domain.bce_grad", None),
    ("drshift.domain", "density_chain_gradient", "domain.density_grad", _clamped),
    ("drshift.kde", "kde_log_density", "kde.log_density", None),
    ("drshift.kde", "plugin_ratio", "kde.plugin_ratio", None),
    ("drshift.selftrain", "select_pseudo", "selftrain.select_pseudo", _pseudo),
    ("drshift.data", "augment_batch", "data.augment_batch", None),
    ("drshift.data", "load_csv", "data.load_csv", _rows_result),
    ("drshift.data", "dataset_from_arrays", "data.dataset_from_arrays", _rows_result),
    ("drshift.data", "generate_gaussian_shift", "data.generate_gaussian_shift", None),
    ("drshift.calibration", "fit_temperature", "calibration.fit_temperature", None),
    ("drshift.calibration", "nll", "calibration.nll", None),
    ("drshift.calibration", "calibration_report", "calibration.report", None),
    ("drshift.cli", "write_jsonl", "cli.write", _file_bytes),
    ("drshift.cli", "write_report", "cli.write", _file_bytes),
    ("drshift.cli", "write_reliability", "cli.write", _file_bytes),
    ("drshift.cli", "write_predictions", "cli.write", _file_bytes),
    ("drshift.robust", "checkpoint_to_json", "cli.checkpoint", _text_bytes),
)


class Tracer:
    """Per-layer call counts, row counts and self times for one traced interval."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()
        self._stack = []
        self._patched = []

    def reset(self):
        self.stats = {}
        self.counters = {"density_samples": 0, "density_clamped": 0, "n_pseudo": 0}

    def wrap(self, name, fn, measure=None):
        """Return fn wrapped in a span called name."""

        def traced(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                stat = self.stats.setdefault(name, LayerStat())
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - child[0]
            if measure is not None:
                measure(self, stat, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every drshift namespace that binds a traced function."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "drshift" or n.startswith("drshift.")) and m is not None]
        for module_name, func_name, span_name, measure in SPANS:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self.wrap(span_name, original, measure)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False
