"""Per-layer tracing for the benchmark's traced runs (`--trace 1`).

`Tracer.install()` rebinds module attributes of the imported `qw1` package:
every public function of every module, plus the phase helpers of
`qw1.conic` (`_presolve`, `_BlockData`, `_schur`, `_Scaling`,
`_Scaling.max_step`) and the LAPACK Cholesky it calls, and a few private
entry points that the metrics below name.  A name imported into another
module (`from .w1 import w1_primal`) is rebound there too.  Nothing under
`src/` changes; `uninstall()` puts every original back.

Each wrapped call is one span.  A layer's time counts only its outermost
span, so a layer function calling another of the same layer is not counted
twice; a function's self time is its span minus its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

MODULES = ("operators", "conic", "w1", "classical", "channels", "lab", "cli")

# layer -> the functions it times, as (module, attribute path)
LAYERS = {
    "conic.solve": [("conic", "solve")],
    "conic.presolve": [("conic", "_presolve")],
    "conic.blockdata": [("conic", "_BlockData.__init__")],
    "conic.schur": [("conic", "_schur")],
    "conic.scaling": [("conic", "_Scaling.__init__")],
    "conic.step": [("conic", "_Scaling.max_step")],
    "conic.cholesky": [("scipy.linalg", "cho_factor")],
    "w1.layout_data": [("w1", "_layout_data")],
    "w1.primal": [("w1", "w1_primal")],
    "w1.dual": [("w1", "w1_dual")],
    "w1.lipschitz": [("w1", "lipschitz_constant")],
    "channels.one_to_one": [("channels", "_one_to_one_with_maximizer")],
    "channels.diamond": [("channels", "diamond_norm")],
    "channels.fixed_point": [("channels", "fixed_point")],
    "channels.empirical": [("channels", "empirical_contraction")],
    "classical.lp": [("classical", "classical_w1"), ("classical", "classical_w1_dual")],
    "operators.partial_trace": [("operators", "partial_trace")],
    "operators.spectral": [("operators", n) for n in (
        "trace_norm", "operator_norm", "von_neumann_entropy", "relative_entropy")],
    "operators.io": [("operators", n) for n in (
        "load_operator", "operator_from_json", "matrix_from_json",
        "operator_to_json", "matrix_to_json", "save_operator")],
    "cli.main": [("cli", "main")],
}

# layers whose self time outside the solver and the layout cache is w1.build
BUILD_LAYERS = ("w1.primal", "w1.dual", "w1.lipschitz")
EXCLUDED_FROM_BUILD = ("conic.solve", "w1.layout_data")

# the battery's 33 check families, timed one by one with run_battery(only=...)
LAB_FAMILIES = (
    "duality-gap", "homogeneity", "triangle", "sandwich", "neighboring-collapse",
    "permutation-invariance", "local-unitary-invariance", "channel-contraction",
    "product-additivity", "superadditivity", "locality", "diagonal-restriction",
    "replace-site-trace-norm", "matched-marginal-entropy", "classical-neighboring",
    "product-factor-bound", "entangled-pair-value", "channel-perturbation-containment",
    "entropy-continuity", "pinsker", "marton", "concentration-mgf", "spectral-tail",
    "diamond-dominates-one-to-one", "contraction-bracket", "depolarizing",
    "light-cone-dominates", "classical-duality", "classical-shannon",
    "classical-product-tv", "classical-marton", "lipschitz-sandwich", "norm-order",
)

# layer -> (time metric, call-count metric)
_LAYER_METRICS = {
    layer: (f"{layer}_s", f"{layer}_calls") for layer in LAYERS
}
_LAYER_METRICS["conic.solve"] = ("conic.solve_s", "conic.solves")
_LAYER_METRICS["cli.main"] = (None, "cli.calls")

COUNTERS = ("conic.iterations", "conic.presolve_rows_dropped", "conic.cholesky_retries")
MAXIMA = ("conic.a_mb", "conic.rows_max", "conic.vars_max")
DERIVED = ("w1.build_s", "cli.self_s")


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for layer, (t, c) in _LAYER_METRICS.items():
        names += [m for m in (c, t) if m]
    names += list(COUNTERS) + list(MAXIMA) + list(DERIVED)
    names += [f"lab.family.{f}_s" for f in LAB_FAMILIES]
    return names


class _Frame:
    __slots__ = ("name", "layer", "span", "child", "excluded")

    def __init__(self, name, layer, span):
        self.name, self.layer, self.span = name, layer, span
        self.child = 0.0     # wall time of direct wrapped children
        self.excluded = 0.0  # time in solver / layout cache, for w1.build


class Phase:
    """Totals accumulated between two `Tracer.take()` calls."""

    def __init__(self):
        self.func = defaultdict(lambda: [0, 0.0, 0.0])   # calls, total, self
        self.layer_time = defaultdict(float)
        self.layer_calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.build = 0.0


class Tracer:
    def __init__(self):
        self._stack = []
        self._active = defaultdict(int)
        self._patches = []
        self.spans = []       # [name, parent span index, start, end]
        self.phase = Phase()
        self._t0 = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"qw1.{m}") for m in MODULES}
        mods["scipy.linalg"] = scipy.linalg
        layer_of = {}
        for layer, targets in LAYERS.items():
            for mod, path in targets:
                layer_of[(mod, path)] = layer
        targets = set(layer_of)
        for short in MODULES:
            mod = mods[short]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    targets.add((short, name))
        for short, path in sorted(targets):
            owner = mods[short]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(original, f"{short}.{path}", layer_of.get((short, path)))
            if outer:
                self._patch(owner, attr, wrapped)
                continue
            # rebind the name in every qw1 module that imported this object
            for mod in mods.values():
                for name, obj in list(vars(mod).items()):
                    if obj is original:
                        self._patch(mod, name, wrapped)
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent_span = next((f.span for f in reversed(stack) if f.span is not None), None)
            span = None
            if layer is not None:
                span = len(tracer.spans)
                tracer.spans.append([name, parent_span, 0.0, 0.0])
                tracer._active[layer] += 1
            frame = _Frame(name, layer, span)
            stack.append(frame)
            result, error = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child += elapsed
                tracer._record(frame, elapsed, args, result, error)
                if span is not None:
                    tracer.spans[span][2] = start - tracer._t0
                    tracer.spans[span][3] = start + elapsed - tracer._t0

        return traced

    def _record(self, frame, elapsed, args, result, error):
        ph = self.phase
        stats = ph.func[frame.name]
        stats[0] += 1
        stats[1] += elapsed
        stats[2] += elapsed - frame.child
        layer = frame.layer
        if layer is None:
            return
        self._active[layer] -= 1
        if self._active[layer] == 0:
            ph.layer_time[layer] += elapsed
            ph.layer_calls[layer] += 1
        if layer in EXCLUDED_FROM_BUILD:
            for outer in reversed(self._stack):
                if outer.layer in BUILD_LAYERS:
                    outer.excluded += elapsed
                    break
        elif layer in BUILD_LAYERS:
            if not any(f.layer in BUILD_LAYERS for f in self._stack):
                ph.build += elapsed - frame.excluded
        elif layer == "conic.cholesky" and isinstance(error, np.linalg.LinAlgError):
            ph.counters["conic.cholesky_retries"] += 1
        if error is not None:
            return
        if layer == "conic.solve":
            rows, cols = args[0].A.shape
            ph.counters["conic.iterations"] += result.iterations
            ph.maxima["conic.rows_max"] = max(ph.maxima["conic.rows_max"], rows)
            ph.maxima["conic.vars_max"] = max(ph.maxima["conic.vars_max"], cols)
            # computed from the shape: rows x cols float64, not measured
            ph.maxima["conic.a_mb"] = max(ph.maxima["conic.a_mb"], rows * cols * 8 / 1e6)
        elif layer == "conic.presolve":
            ph.counters["conic.presolve_rows_dropped"] += args[0].shape[0] - len(result[2])

    def span_table(self) -> dict:
        """Spans as rows [name index, parent span or -1, start us, duration us]."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[name], -1 if parent is None else parent,
                 round(start * 1e6), round((end - start) * 1e6)]
                for name, parent, start, end in self.spans]
        return {"names": names, "rows": rows}

    def take(self) -> Phase:
        """Return the totals recorded so far and start a new phase."""
        done, self.phase = self.phase, Phase()
        return done


def layer_metrics(setup: Phase, rounds: Phase, n_rounds: int) -> dict:
    """Per-layer metrics: the set-up phase once plus the average round."""
    out = {}

    def add(name, a, b):
        out[name] = a + b / n_rounds

    for layer, (t, c) in _LAYER_METRICS.items():
        if t:
            add(t, setup.layer_time[layer], rounds.layer_time[layer])
        add(c, setup.layer_calls[layer], rounds.layer_calls[layer])
    for name in COUNTERS:
        add(name, setup.counters[name], rounds.counters[name])
    for name in MAXIMA:
        out[name] = max(setup.maxima[name], rounds.maxima[name])
    add("w1.build_s", setup.build, rounds.build)
    add("cli.self_s", setup.func["cli.main"][2], rounds.func["cli.main"][2])
    return out


def function_table(phase: Phase) -> dict:
    return {name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(phase.func.items())}
