"""Per-layer counters and timers for the traced run.

The tracer replaces public names of ``insiderctl`` modules with timing
wrappers, from the benchmark's side: a name is wrapped in the module whose
code calls it (``ctl.successors`` is the ``successors`` that ``reachable``
calls), so no file of the program changes.  Each wrapper adds its call's
duration to its layer and to the child time of the wrapped call it runs
inside; a layer's self time is its time minus that child time.  A name the
program no longer has is recorded as absent, and its layer reads 0.

Totals are kept per phase ("prepare", "setup", "op", "check"), in memory; the
"op" phase after the warm-up ops feeds the per-op metrics, and the "setup"
phase the per-set-up serialise time.
"""

from __future__ import annotations

import gc
import importlib
from time import perf_counter

# layer -> the (module, name) pairs whose calls it times.
WRAPPED = {
    "cli.run": [("cli", "run_command")],
    "modelfile.parse": [("modelfile", "parse_model"), ("cli", "parse_model")],
    "modelfile.serialize": [("modelfile", "serialize_model"), ("cli", "serialize_model")],
    "formula.parse": [("formula", "parse_formula"), ("cli", "parse_formula")],
    "transition.lint": [("transition", "lint_model"), ("cli", "lint_model")],
    "transition.successors": [("ctl", "successors")],
    "model.enables": [("transition", "enables"), ("model", "enables")],
    "model.eval_predicate": [("ctl", "eval_predicate")],
    "ctl.reachable": [("ctl", "reachable"), ("cli", "reachable")],
    "ctl.encode": [("ctl", "encode")],
    "ctl.check": [("ctl", "check"), ("cli", "check")],
    "ctl.fixpoint": [("ctl", "lfp_iterate"), ("ctl", "gfp_iterate")],
    "ctl.trace": [("ctl", "extract_trace"), ("cli", "extract_trace")],
    "ctl.render": [
        ("ctl", "format_trace"),
        ("ctl", "dot_export"),
        ("cli", "format_trace"),
        ("cli", "dot_export"),
    ],
}

MS, COUNT = "ms", "count"


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.totals: dict = {}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._restore: list = []
        self._gc_start = 0.0

    # -- bookkeeping --------------------------------------------------------

    def _slot(self) -> dict:
        return self.totals.setdefault(self.phase, {})

    def add(self, key: str, amount: float) -> None:
        slot = self._slot()
        slot[key] = slot.get(key, 0) + amount

    def reset(self, phase: str) -> None:
        self.totals.pop(phase, None)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, targets in WRAPPED.items():
            for modname, name in targets:
                module = importlib.import_module(f"insiderctl.{modname}")
                original = getattr(module, name, None)
                if original is None:
                    self.absent.append(f"insiderctl.{modname}.{name}")
                    continue
                setattr(module, name, self._wrap(layer, original))
                self._restore.append((module, name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, event: str, info: dict) -> None:
        if event == "start":
            self._gc_start = perf_counter()
        else:
            self.add("python.gc_s", perf_counter() - self._gc_start)
            self.add("python.gc_collections", 1)

    def _wrap(self, layer: str, original):
        stack = self._stack
        observe = _OBSERVERS.get(layer)
        tracer = self

        def wrapper(*args, **kwargs):
            if layer == "ctl.fixpoint" and args and callable(args[0]):
                args = (tracer._counting(args[0]),) + args[1:]
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += spent
                tracer.add(layer + ".calls", 1)
                tracer.add(layer + ".s", spent)
                tracer.add(layer + ".self_s", spent - child)
            if observe is not None:
                observe(tracer, spent, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _counting(self, transformer):
        def step(z):
            self.add("ctl.fixpoint.iterations", 1)
            return transformer(z)

        return step


def _observe_successors(tracer, spent, result):
    tracer.add("transition.edges", len(result))


def _observe_reachable(tracer, spent, k):
    labelled = sum(len(out) for out in k.edges)
    tracer.add("ctl.states", len(k.states))
    tracer.add("ctl.labelled_edges", labelled)
    tracer.add("ctl.distinct_edges", sum(len({j for _, j in out}) for out in k.edges))


def _observe_trace(tracer, spent, path):
    tracer.add("ctl.trace_steps", len(path))


def _observe_render(tracer, spent, text):
    tracer.add("ctl.render_bytes", len(text.encode("utf-8")))


_OBSERVERS = {
    "transition.successors": _observe_successors,
    "ctl.reachable": _observe_reachable,
    "ctl.trace": _observe_trace,
    "ctl.render": _observe_render,
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(op_totals: dict, ops: int, setup_totals: dict, setups: int) -> dict:
    """The per-layer metrics, per op (per set-up for ``serialize``), from the
    traced totals.  Layers the workload never reached read 0."""
    t = lambda key: op_totals.get(key, 0)  # noqa: E731
    per_op = lambda key: t(key) / ops if ops else 0.0  # noqa: E731
    ms = lambda key: 1000.0 * per_op(key)  # noqa: E731
    serialize_s = setup_totals.get("modelfile.serialize.s", 0)
    out = {
        "cli.import_ms": (0.0, MS),  # measured apart, by the workload
        "cli.run_ms": (ms("cli.run.s"), MS),
        "modelfile.parse_ms": (ms("modelfile.parse.s"), MS),
        "modelfile.parse_calls": (per_op("modelfile.parse.calls"), COUNT),
        "modelfile.serialize_ms": (1000.0 * serialize_s / setups if setups else 0.0, MS),
        "formula.parse_ms": (ms("formula.parse.s"), MS),
        "formula.parse_calls": (per_op("formula.parse.calls"), COUNT),
        "transition.lint_ms": (ms("transition.lint.s"), MS),
        "transition.successors_calls": (per_op("transition.successors.calls"), COUNT),
        "transition.edges": (per_op("transition.edges"), COUNT),
        "transition.successors_ms": (ms("transition.successors.s"), MS),
        "transition.successors_self_ms": (ms("transition.successors.self_s"), MS),
        "model.enables_calls": (per_op("model.enables.calls"), COUNT),
        "model.enables_ms": (ms("model.enables.s"), MS),
        "model.eval_predicate_calls": (per_op("model.eval_predicate.calls"), COUNT),
        "model.eval_predicate_ms": (ms("model.eval_predicate.s"), MS),
        "ctl.reachable_ms": (ms("ctl.reachable.s"), MS),
        "ctl.reachable_self_ms": (ms("ctl.reachable.self_s"), MS),
        "ctl.encode_calls": (per_op("ctl.encode.calls"), COUNT),
        "ctl.encode_ms": (ms("ctl.encode.s"), MS),
        "ctl.states": (per_op("ctl.states"), COUNT),
        "ctl.states_per_s": (_ratio(t("ctl.states"), t("ctl.reachable.s")), "1/s"),
        "ctl.new_state_ratio": (_ratio(t("ctl.states"), t("transition.edges")), "ratio"),
        "ctl.distinct_edge_ratio": (
            _ratio(t("ctl.distinct_edges"), t("ctl.labelled_edges")),
            "ratio",
        ),
        "ctl.check_calls": (per_op("ctl.check.calls"), COUNT),
        "ctl.check_ms": (ms("ctl.check.s"), MS),
        "ctl.check_self_ms": (ms("ctl.check.self_s"), MS),
        "ctl.fixpoint_calls": (per_op("ctl.fixpoint.calls"), COUNT),
        "ctl.fixpoint_iterations": (per_op("ctl.fixpoint.iterations"), COUNT),
        "ctl.trace_ms": (ms("ctl.trace.s"), MS),
        "ctl.trace_steps": (per_op("ctl.trace_steps"), COUNT),
        "ctl.render_ms": (ms("ctl.render.s"), MS),
        "ctl.render_bytes": (per_op("ctl.render_bytes"), "bytes"),
        "python.gc_ms": (ms("python.gc_s"), MS),
        "python.gc_collections": (per_op("python.gc_collections"), COUNT),
    }
    return out
