"""Span tracing of smld's public functions, applied from outside the package.

A :class:`Tracer` used as a context manager replaces each traced function by
a wrapper that records one span per call: layer name, start, end, the span
that called it and the current request.  The wrapper is installed wherever
the function is looked up -- every ``smld`` module namespace that binds it
(``core`` imports ``gamma_mean`` and ``reg_lower_gamma`` by name, for
example), module-level tuples such as ``verification.ALL_CHECKS``, and the
class for ``TestFunction.__call__`` -- and every original is put back on
exit.  Spans stay in compact arrays in memory until :meth:`Tracer.save`.

Self time of a span is its duration minus the durations of its direct
children, so ``apply_operator -> gamma_mean -> TestFunction.__call__``
splits into three disjoint shares.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (layer, module, attribute, extractor, aggregate): the extractor maps a
# call's (args, kwargs) to a number that is summed or maxed per layer.
_TARGETS = (
    ("special.reg_lower_gamma", "smld.special", "reg_lower_gamma", None, None),
    ("special.poisson_weight_log", "smld.special", "poisson_weight_log", None, None),
    ("quadrature.gamma_mean", "smld.operator.quadrature", "gamma_mean", None, None),
    ("functions.eval", "smld.operator.functions", "TestFunction.__call__",
     lambda a, k: np.size(a[1]), "sum"),
    ("core.apply_operator", "smld.operator.core", "apply_operator", None, None),
    ("core.apply_operator_grid", "smld.operator.core", "apply_operator_grid",
     lambda a, k: np.size(a[1] if len(a) > 1 else k["xs"]), "sum"),
    ("core.kernel_on_x_grid", "smld.operator.core", "kernel_on_x_grid", None, None),
    ("spectral.build_P", "smld.spectral", "build_P",
     lambda a, k: a[1] if len(a) > 1 else k["K"], "max"),
    ("spectral.adaptive_K", "smld.spectral", "adaptive_K", None, None),
    ("analysis.lp_error", "smld.analysis", "lp_error", None, None),
    ("analysis.weighted_lp_error", "smld.analysis", "weighted_lp_error", None, None),
    ("analysis.operator_sup_error", "smld.analysis", "operator_sup_error", None, None),
    ("analysis.schur_second_integral", "smld.analysis", "schur_second_integral", None, None),
    ("cli.parse_config", "smld.cli", "parse_config", None, None),
    ("cli.emit", "smld.cli", "emit", None, None),
)

CHECK_COUNT = 14

# Every per-layer metric a traced run prints, in order.
LAYER_METRICS = (
    ("quadrature.gamma_mean.calls", "count", "lower"),
    ("quadrature.gamma_mean.s", "s", "lower"),
    ("quadrature.gamma_mean.us_per_call", "us", "lower"),
    ("functions.eval.calls", "count", "lower"),
    ("functions.eval.points", "count", "lower"),
    ("functions.eval.s", "s", "lower"),
    ("core.coefficient.cache_hits", "count", "higher"),
    ("core.coefficient.cache_misses", "count", "lower"),
    ("core.coefficient.hit_ratio", "ratio", "higher"),
    ("core.coefficient.cache_size_end", "count", "lower"),
    ("core.apply_operator.calls", "count", "lower"),
    ("core.apply_operator.s", "s", "lower"),
    ("core.apply_operator_grid.calls", "count", "lower"),
    ("core.apply_operator_grid.points", "count", "lower"),
    ("core.apply_operator_grid.s", "s", "lower"),
    ("core.kernel_on_x_grid.calls", "count", "lower"),
    ("core.kernel_on_x_grid.s", "s", "lower"),
    ("special.reg_lower_gamma.calls", "count", "lower"),
    ("special.reg_lower_gamma.s", "s", "lower"),
    ("special.poisson_weight_log.calls", "count", "lower"),
    ("special.poisson_weight_log.s", "s", "lower"),
    ("spectral.build_P.calls", "count", "lower"),
    ("spectral.build_P.s", "s", "lower"),
    ("spectral.build_P.K_max", "count", "lower"),
    ("spectral.adaptive_K.s", "s", "lower"),
    ("moments.s", "s", "lower"),
    ("analysis.lp_error.s", "s", "lower"),
    ("analysis.weighted_lp_error.s", "s", "lower"),
    ("analysis.operator_sup_error.s", "s", "lower"),
    ("analysis.schur_second_integral.s", "s", "lower"),
    *((f"verification.check_{i:02d}.s", "s", "lower") for i in range(1, CHECK_COUNT + 1)),
    ("cli.parse_config.s", "s", "lower"),
    ("cli.emit.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

CACHE_METRICS = tuple(m for m, _, _ in LAYER_METRICS if m.startswith("core.coefficient."))


def _smld_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "smld" or name.startswith("smld."))]


def _resolve(module_name: str, attr: str):
    """(owner, attribute name, original) for 'func' or 'Class.method'."""
    owner = sys.modules[module_name]
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last, vars(owner)[last]


def coefficient_cache():
    """The coefficient ``lru_cache`` if this version of smld has one."""
    core = sys.modules.get("smld.operator.core")
    cached = getattr(core, "_coefficient_cached", None)
    return cached if callable(getattr(cached, "cache_info", None)) else None


def reset_caches() -> None:
    """Empty every functools cache defined in smld, as in a fresh process."""
    for module in _smld_modules():
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and getattr(value, "__module__", "").startswith("smld"):
                clear()


class Tracer:
    """Records spans for calls into smld's layers while active."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request_id = -1
        self._stack = [-1]
        self._extra: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers -------------------------------------

    def _label_id(self, label: str) -> int:
        if label not in self.labels:
            self.labels.append(label)
        return self.labels.index(label)

    def _wrap(self, label, fn, extract=None, aggregate=None):
        label_id = self._label_id(label)
        clock = time.perf_counter
        stack = self._stack
        extra = self._extra
        name, parent, request, start, end = self.name, self.parent, self.request, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(label_id)
            parent.append(stack[-1])
            request.append(self.request_id)
            end.append(0.0)
            if extract is not None:
                value = float(extract(args, kwargs))
                old = extra.get(label, 0.0)
                extra[label] = old + value if aggregate == "sum" else max(old, value)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _targets(self):
        for label, module, attr, extract, aggregate in _TARGETS:
            yield (label, *_resolve(module, attr), extract, aggregate)
        moments = sys.modules["smld.moments"]
        for attr in moments.__all__:
            fn = vars(moments)[attr]
            if callable(fn) and not isinstance(fn, type):
                yield "moments", moments, attr, fn, None, None
        verification = sys.modules["smld.verification"]
        for check in verification.ALL_CHECKS:
            number = check.__name__.split("_")[1]
            yield f"verification.check_{number}", verification, check.__name__, check, None, None

    def __enter__(self) -> "Tracer":
        swaps = {}
        for label, owner, attr, original, extract, aggregate in self._targets():
            wrapper = self._wrap(label, original, extract, aggregate)
            swaps[original] = wrapper
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        for module in _smld_modules():
            for attr, value in list(vars(module).items()):
                if isinstance(value, tuple) and any(_is_swapped(v, swaps) for v in value):
                    new = tuple(swaps[v] if _is_swapped(v, swaps) else v for v in value)
                elif callable(value) and _is_swapped(value, swaps):
                    new = swaps[value]
                else:
                    continue
                self._patched.append((module, attr, value))
                setattr(module, attr, new)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return start, end, name, parent

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self seconds and inclusive seconds."""
        start, end, name, parent = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        count = len(self.labels)
        calls = np.bincount(name, minlength=count)
        self_s = np.bincount(name, weights=own, minlength=count)
        incl_s = np.bincount(name, weights=dur, minlength=count)
        return {
            label: {"calls": int(calls[i]), "s": float(self_s[i]), "inclusive_s": float(incl_s[i])}
            for i, label in enumerate(self.labels)
        }

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the cache counters and trace overhead."""
        times = self.layer_times()
        empty = {"calls": 0, "s": 0.0, "inclusive_s": 0.0}
        out: dict[str, float] = {}
        for metric, _, _ in LAYER_METRICS:
            layer, _, field = metric.rpartition(".")
            if metric in CACHE_METRICS or metric == "trace.overhead_s":
                continue
            entry = times.get(layer, empty)
            if field in ("calls", "s"):
                out[metric] = entry[field]
            elif field == "us_per_call":
                out[metric] = 1e6 * entry["inclusive_s"] / entry["calls"] if entry["calls"] else 0.0
            else:  # points, K_max
                out[metric] = int(self._extra.get(layer, 0))
        return out

    def save(self, path) -> None:
        """Write every span (and the layer names) to an ``.npz`` file."""
        start, end, name, parent = self._arrays()
        np.savez(
            path,
            labels=np.array(self.labels),
            name=name,
            parent=parent,
            request=np.frombuffer(self.request, dtype=np.int32),
            start=start,
            end=end,
        )


def _is_swapped(value, swaps) -> bool:
    try:
        return value in swaps
    except TypeError:  # unhashable
        return False
