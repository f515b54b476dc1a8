"""The four workloads.

Each workload has four steps:

* ``prepare(seed)``: the reference answers, from :mod:`naive`; not timed;
* ``setup()``: make the inputs of an op (timed, and repeated in a run);
* ``op(inputs)``: one unit of work, the same every time (timed);
* ``check(inputs, outputs)``: compare an op's outputs with the reference
  answers; not timed.  False counts the op as failed.
"""

from __future__ import annotations

import io
import os
import re
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import inputs
import oracles
from insiderctl import airplane, cli, ctl, formula, modelfile, transition
from naive import Reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Workload:
    name = ""
    warmup = 2  # ops run and checked before timing starts

    def prepare(self, seed: int) -> None:
        pass

    def setup(self):
        raise NotImplementedError

    def op(self, inputs):
        raise NotImplementedError

    def check(self, inputs, outputs) -> bool:
        raise NotImplementedError

    def replay(self, inputs) -> None:
        """In-process work the traced run adds after each op."""

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def layer_extras(self) -> dict:
        return {}


# ---------------------------------------------------------------------------


class PaperQueries(Workload):
    """The paper's three queries, each a fresh ``python -m insiderctl``
    process on the document ``scenario export baseline`` writes."""

    name = "paper_queries"
    warmup = 0  # a command-line user pays the cold start on every call

    def __init__(self, out_dir: Path):
        self.path = out_dir / "baseline.model"

    def prepare(self, seed: int) -> None:
        four_eyes = airplane.build_airplane_model("four_eyes")
        assumed = four_eyes.with_assumptions([airplane.cockpit_foe_control()])
        self.states = [len(oracles.o_reach(m)[0]) for m in (four_eyes, assumed)]

    def setup(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.run_command(["scenario", "export", "baseline"])
        if code != 0:
            raise RuntimeError(f"scenario export exited {code}")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(buf.getvalue(), encoding="utf-8")
        return self.path

    def _argv(self, path, args):
        return [str(path) if a == "{model}" else a for a in args]

    def op(self, path):
        out = []
        for args, _ in inputs.PAPER_QUERIES:
            proc = subprocess.run(
                [sys.executable, "-m", "insiderctl", *self._argv(path, args)],
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=120,
            )
            out.append((proc.returncode, proc.stdout))
        return out

    def check(self, path, outputs) -> bool:
        (rc_w, witness), (rc_c, failing), (rc_a, assumed) = outputs
        if (rc_w, rc_c, rc_a) != tuple(code for _, code in inputs.PAPER_QUERIES):
            return False
        failing_lines = failing.splitlines()
        counter = failing_lines.index("counterexample:") if "counterexample:" in failing_lines else -1
        return (
            witness.startswith("witness (0 steps):\n")
            and f"states explored: {self.states[0]}" in failing_lines
            and "check AG eve_ok: fails" in failing_lines
            and counter >= 0
            and counter + 1 < len(failing_lines)
            and failing_lines[counter + 1].startswith("s0:")
            and f"states explored: {self.states[1]}" in assumed.splitlines()
            and "check AG eve_ok: holds" in assumed.splitlines()
        )

    def replay(self, path) -> None:
        """The three queries once more, in-process, for ``cli.run_ms`` and
        the layers below it."""
        for args, code in inputs.PAPER_QUERIES:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                got = cli.run_command(self._argv(path, args))
            if got != code:
                raise RuntimeError(f"in-process replay of {args[0]} exited {got}")

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def layer_extras(self) -> dict:
        """``cli.import_ms``: a fresh ``import insiderctl.cli`` minus a bare
        interpreter start, as the median of seven pairs."""
        diffs = []
        for _ in range(7):
            pair = []
            for code in ("pass", "import insiderctl.cli"):
                start = perf_counter()
                subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=60)
                pair.append(perf_counter() - start)
            diffs.append(pair[1] - pair[0])
        return {"cli.import_ms": (1000.0 * statistics.median(diffs), "ms")}


# ---------------------------------------------------------------------------

_NODE_LINE = re.compile(r"^  s\d+ \[label=", re.M)
_EDGE_LINE = re.compile(r"^  s\d+ -> s\d+ \[label=", re.M)


class AirplaneScaled(Workload):
    """Exploration-bound: parse, ``reachable``, count edges and render DOT,
    and check ``AG (EF eve_ok)``, which needs every state."""

    name = "airplane_scaled"
    FORMULA = ("AG", ("EF", "eve_ok"))

    def __init__(self, passengers: int = 1):
        self.passengers = passengers

    def prepare(self, seed: int) -> None:
        self.ref = Reference(inputs.scaled_airplane(self.passengers))
        self.ref.label(self.FORMULA)

    def setup(self):
        return modelfile.serialize_model(inputs.scaled_airplane(self.passengers))

    def op(self, doc):
        k = ctl.reachable(modelfile.parse_model(doc))
        edges = sum(len(out) for out in k.edges)
        dot = ctl.dot_export(k)
        verdict = ctl.check(k, formula.parse_formula(inputs.formula_text(self.FORMULA)))
        return k, edges, dot, verdict

    def check(self, doc, outputs) -> bool:
        k, edges, dot, verdict = outputs
        worlds = self.ref.engine_worlds(k)
        return (
            worlds is not None
            and len(k.states) == 243 * 2**self.passengers
            and len(_NODE_LINE.findall(dot)) == len(k.states)
            and len(_EDGE_LINE.findall(dot)) == edges
            and self.ref.same_set(worlds, verdict.sat, self.FORMULA)
            and verdict.holds == (self.ref.start in self.ref.label(self.FORMULA))
        )


# ---------------------------------------------------------------------------


class FormulaBattery(Workload):
    """Labelling-bound: the scaled airplane is parsed and explored at set-up;
    an op parses and checks the battery and extracts its traces."""

    name = "formula_battery"
    DUALS = ((0, 1), (2, 3), (4, 5))  # positions in inputs.BATTERY

    def __init__(self, passengers: int = 2):
        self.passengers = passengers
        self._indexed = None

    def _model(self):
        return inputs.scaled_airplane(self.passengers, inputs.battery_predicates())

    def prepare(self, seed: int) -> None:
        self.ref = Reference(self._model())
        for f in inputs.BATTERY:
            self.ref.label(f)

    def setup(self):
        return ctl.reachable(modelfile.parse_model(modelfile.serialize_model(self._model())))

    def op(self, k):
        out = []
        for f in inputs.BATTERY:
            parsed = formula.parse_formula(inputs.formula_text(f))
            verdict = ctl.check(k, parsed)
            trace = None
            if f[0] == "EF" and verdict.holds:
                trace = ctl.extract_trace(k, parsed, "witness")
            elif f[0] == "AG" and not verdict.holds:
                trace = ctl.extract_trace(k, parsed, "counterexample")
            out.append((verdict, trace))
        return out

    def _reference_for(self, k):
        """The oracle world of each of ``k``'s states and each formula's
        satisfying set as engine indices; computed once per state space."""
        if self._indexed is None or self._indexed[0] is not k:
            worlds = self.ref.engine_worlds(k)
            sets = None
            if worlds is not None:
                sets = [
                    frozenset(i for i, w in enumerate(worlds) if w in self.ref.label(f))
                    for f in inputs.BATTERY
                ]
            self._indexed = (k, worlds, sets)
        return self._indexed[1:]

    def check(self, k, outputs) -> bool:
        worlds, sets = self._reference_for(k)
        if worlds is None:
            return False
        universe = k.universe
        for a, b in self.DUALS:
            if outputs[a][0].sat != universe - outputs[b][0].sat:
                return False
        for f, expected, (verdict, trace) in zip(inputs.BATTERY, sets, outputs):
            if verdict.sat != expected or verdict.holds != (k.init <= expected):
                return False
            if f[0] == "EF" and verdict.holds:
                goal = self.ref.label(f[1])
            elif f[0] == "AG" and not verdict.holds:
                goal = self.ref.worlds - self.ref.label(f[1])
            else:
                if trace is not None:
                    return False
                continue
            if trace is None or not self.ref.valid_trace(worlds, k, trace, goal):
                return False
        return True


# ---------------------------------------------------------------------------


class RandomModels(Workload):
    """Per-model work: a batch of seeded random documents, each parsed,
    linted, explored and checked against a small battery over its goal."""

    name = "random_models"

    def __init__(self, profile: dict | None = None):
        self.profile = inputs.BATCH_PROFILE if profile is None else profile

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.indices = inputs.select_batch(
            seed, self.profile, lambda m: len(oracles.o_reach(m)[0])
        )
        self.refs = [Reference(m) for m in inputs.batch(seed, self.indices)]
        for ref in self.refs:
            for f in inputs.GOAL_BATTERY:
                ref.label(f)

    def setup(self):
        return [modelfile.serialize_model(m) for m in inputs.batch(self.seed, self.indices)]

    def op(self, docs):
        battery = [formula.parse_formula(inputs.formula_text(f)) for f in inputs.GOAL_BATTERY]
        ef_goal, ag_goal = battery[0], battery[1]
        out = []
        for doc in docs:
            model = modelfile.parse_model(doc)
            transition.lint_model(model)
            k = ctl.reachable(model)
            verdicts = [ctl.check(k, f) for f in battery]
            if verdicts[0].holds:
                trace = ctl.extract_trace(k, ef_goal, "witness")
            else:
                trace = ctl.extract_trace(k, ag_goal, "counterexample")
            out.append((k, verdicts, trace))
        return out

    def check(self, docs, outputs) -> bool:
        if len(outputs) != len(self.refs):
            return False
        for ref, (k, verdicts, trace) in zip(self.refs, outputs):
            worlds = ref.engine_worlds(k)
            if worlds is None:
                return False
            for f, verdict in zip(inputs.GOAL_BATTERY, verdicts):
                if not ref.same_set(worlds, verdict.sat, f):
                    return False
                if verdict.holds != (ref.start in ref.label(f)):
                    return False
            goal = ref.label("goal")
            goal_states = frozenset(i for i, w in enumerate(worlds) if w in goal)
            if verdicts[0].sat != oracles.backward_closure(k.edges, goal_states):
                return False
            target = goal if verdicts[0].holds else ref.worlds - goal
            if not ref.valid_trace(worlds, k, trace, target):
                return False
        return True


def make(name: str, out_dir: Path) -> Workload:
    if name == "paper_queries":
        return PaperQueries(out_dir)
    return {
        "airplane_scaled": AirplaneScaled,
        "formula_battery": FormulaBattery,
        "random_models": RandomModels,
    }[name]()

