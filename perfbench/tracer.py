"""Layer tracer for torusnf, installed from outside the package.

Each traced public function is replaced by a wrapper that records its call
count, inclusive time (outermost activation only, so a function reached again
through its own callees is not counted twice) and self time (its span minus
the spans of traced callees).  Modules import these functions by name
(`from .series import eval_many`), so the wrapper is bound into every
`torusnf` module that holds the original, and methods are replaced on their
class.  Installing then checks that no module or class still holds an
original, so no call can bypass the tracer.

Exact counts are read off public arguments and return values:

- series.eval_many.point_evals: sum of len(series_list) * m
- series.eval_real_grid.grid_points: sum of M^n
- flows.flow.rk4_steps: sum of FlowResult.step_count
- flows.invert_map.iterations: sum of MapInverse.iterations
- fibering.iterations: sum of FiberingResult.iterations
- realization.iterations: sum of RealizationResult.iterations
"""

import functools
import importlib
import pkgutil
import time

import numpy as np

import torusnf

# (module, qualified name) of every traced function.
TARGETS = (
    ("series", "eval_many"),
    ("series", "PeriodicSeries.eval_real_grid"),
    ("series", "series_from_real_grid"),
    ("series", "divide"),
    ("flows", "flow"),
    ("flows", "compose_maps"),
    ("flows", "MapChain.to_single"),
    ("flows", "TorusMapLift.pullback"),
    ("flows", "invert_map"),
    ("flows", "MapChain.apply"),
    ("flows", "MapChain.jacobian_det"),
    ("pipeline", "jacobian_density"),
    ("pipeline", "modulus_phase_split"),
    ("moser", "moser_normalize"),
    ("fibering", "fibering_step"),
    ("fibering", "fibering_normalize"),
    ("realization", "realization_step"),
    ("curves", "gauss_degree"),
    ("pipeline", "normalize_embedding"),
    ("realization", "realize_form"),
)

LAYERS = tuple(f"{mod}.{qual}" for mod, qual in TARGETS)

COUNTERS = (
    "series.eval_many.point_evals",
    "series.eval_real_grid.grid_points",
    "flows.flow.rk4_steps",
    "flows.invert_map.iterations",
    "fibering.iterations",
    "realization.iterations",
)


def _flow_result(out):
    # flow returns a FlowResult, or (FlowResult, series) with a line integrand
    return out[0] if isinstance(out, tuple) else out


# layer -> (counter, f(args, result) -> amount)
_COUNTS = {
    "series.eval_many": (
        "series.eval_many.point_evals",
        lambda args, out: len(args[0]) * int(np.shape(args[1])[0])),
    "series.PeriodicSeries.eval_real_grid": (
        "series.eval_real_grid.grid_points",
        lambda args, out: int(args[1]) ** args[0].n),
    "flows.flow": (
        "flows.flow.rk4_steps",
        lambda args, out: _flow_result(out).step_count),
    "flows.invert_map": (
        "flows.invert_map.iterations",
        lambda args, out: out.iterations),
    "fibering.fibering_normalize": (
        "fibering.iterations",
        lambda args, out: out.iterations),
    "realization.realize_form": (
        "realization.iterations",
        lambda args, out: out.iterations),
}


def _package_modules():
    mods = [torusnf]
    for info in pkgutil.iter_modules(torusnf.__path__):
        mods.append(importlib.import_module(f"torusnf.{info.name}"))
    return mods


class LayerTracer:
    """Context manager that traces the TARGETS while it is active."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.inclusive = dict.fromkeys(LAYERS, 0.0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._active = dict.fromkeys(LAYERS, 0)
        self._stack = []       # per open span: time covered by child spans
        self._restore = []     # (owner, attribute, original)

    def _wrap(self, layer, fn):
        count = _COUNTS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[layer] += 1
            self._active[layer] += 1
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                children = self._stack.pop()
                self._active[layer] -= 1
                self.self_time[layer] += span - children
                if not self._active[layer]:
                    self.inclusive[layer] += span
                if self._stack:
                    self._stack[-1] += span
            if count is not None:
                self.counts[count[0]] += count[1](args, out)
            return out

        return traced

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        modules = _package_modules()
        originals = []
        for (mod_name, qual), layer in zip(TARGETS, LAYERS):
            module = importlib.import_module(f"torusnf.{mod_name}")
            owner_name, _, attr = qual.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                fn = owner.__dict__[attr]
                wrapper = self._wrap(layer, fn)
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                fn = getattr(module, attr)
                wrapper = self._wrap(layer, fn)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, name, fn))
                            setattr(mod, name, wrapper)
            originals.append(fn)
        self._check_complete(modules, originals)

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()
        return False

    @staticmethod
    def _check_complete(modules, originals):
        """Raise if any module or class namespace still holds an original."""
        ids = {id(fn) for fn in originals}
        for mod in modules:
            spaces = [vars(mod)] + [vars(v) for v in vars(mod).values()
                                    if isinstance(v, type)
                                    and v.__module__ == mod.__name__]
            for space in spaces:
                for name, value in space.items():
                    if id(value) in ids:
                        raise RuntimeError(
                            f"tracer missed {mod.__name__}.{name}: it still "
                            "holds the untraced function")

    def metrics(self):
        """Flat {name: value} table: per layer .calls, .s, .self_s, plus counts."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.s"] = self.inclusive[layer]
            out[f"{layer}.self_s"] = self.self_time[layer]
        out.update(self.counts)
        return out

    def exact_counts(self):
        """The part of the table that must repeat exactly between runs."""
        out = {f"{layer}.calls": self.calls[layer] for layer in LAYERS}
        out.update(self.counts)
        return out
