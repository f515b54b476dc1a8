"""Command-line surface.

Subcommands::

    check <model> <formula> [--variant V] [--assume foe:LOC:ACTION:ID]...
                            [--trace] [--max-states N]
    reach <model> [--variant V] [--assume ...] [--dot FILE] [--max-states N]
    witness <model> <EF-formula> [--variant V] [--assume ...] [--max-states N]
    risk --p0 X --p1 Y --p2 Z
    door-sim <script>
    scenario export {baseline,four_eyes}

Exit status: 0 when a check holds (or the command succeeded), 1 when a
check fails, 2 on any usage, parse, or validation error.  Results go to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .ctl import (
    AG,
    EF,
    ExplorationLimitError,
    check,
    dot_export,
    extract_trace,
    format_trace,
    reachable,
)
from .formula import FormulaParseError, parse_formula, pretty
from .ctl import formula_predicates
from .model import ACTIONS, FoeControl, Model, ModelError
from .modelfile import ModelParseError, parse_model, serialize_model
from .transition import lint_model

OK, FAIL, ERROR = 0, 1, 2


class CliError(Exception):
    pass


def _load_model(args) -> Model:
    try:
        with open(args.model, encoding="utf-8") as fh:
            model = parse_model(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read model file: {exc}")
    except ModelParseError as exc:
        raise CliError("model file is invalid:\n" + "\n".join(f"  {d}" for d in exc.diagnostics))
    if getattr(args, "variant", None):
        if args.variant not in model.policy_variants:
            raise CliError(
                f"model has no policy variant {args.variant!r}; "
                f"available: {', '.join(sorted(model.policy_variants))}"
            )
        model = model.with_variant(args.variant)
    extra = []
    for spec in getattr(args, "assume", None) or []:
        parts = spec.split(":")
        if len(parts) != 4 or parts[0] != "foe":
            raise CliError(f"bad assumption {spec!r}; expected foe:LOC:ACTION:ID")
        _, locname, action, foe = parts
        loc = next((l for l in model.locations if l.name == locname), None)
        if loc is None:
            raise CliError(f"assumption names unknown location {locname!r}")
        if action not in ACTIONS:
            raise CliError(f"assumption names unknown action {action!r}")
        if foe not in model.identities:
            raise CliError(f"assumption names unknown identity {foe!r}")
        extra.append(FoeControl(loc, action, foe))
    if extra:
        model = model.with_assumptions(model.assumptions + tuple(extra))
    for warning in lint_model(model):
        print(f"warning: {warning}", file=sys.stderr)
    return model


def _parse_formula_checked(model: Model, text: str):
    try:
        formula = parse_formula(text)
    except FormulaParseError as exc:
        raise CliError(f"bad formula: {exc}")
    for name in sorted(formula_predicates(formula)):
        pred = model.named_predicates.get(name)
        if pred is None:
            raise CliError(f"formula references unknown predicate {name!r}")
        if pred.param is not None:
            raise CliError(f"predicate {name!r} is parameterised and cannot be used directly")
    return formula


def _explore(model: Model, args):
    try:
        return reachable(model, max_states=args.max_states)
    except ExplorationLimitError as exc:
        raise CliError(str(exc))


def _cmd_check(args) -> int:
    model = _load_model(args)
    formula = _parse_formula_checked(model, args.formula)
    kripke = _explore(model, args)
    verdict = check(kripke, formula)
    print(f"states explored: {len(kripke.states)}")
    if verdict.holds:
        print(f"check {pretty(formula)}: holds")
        return OK
    print(f"check {pretty(formula)}: fails")
    if args.trace:
        if isinstance(formula, AG):
            print("counterexample:")
            print(format_trace(kripke, extract_trace(kripke, formula, "counterexample")))
        else:
            print("no counterexample available: formula is not of shape AG g", file=sys.stderr)
    return FAIL


def _cmd_reach(args) -> int:
    model = _load_model(args)
    kripke = _explore(model, args)
    print(f"states: {len(kripke.states)}")
    print(f"edges: {sum(len(e) for e in kripke.edges)}")
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot_export(kripke))
        except OSError as exc:
            raise CliError(f"cannot write DOT file: {exc}")
        print(f"dot written to {args.dot}")
    return OK


def _cmd_witness(args) -> int:
    model = _load_model(args)
    formula = _parse_formula_checked(model, args.formula)
    if not isinstance(formula, EF):
        raise CliError("witness requires a formula of shape 'EF g'")
    kripke = _explore(model, args)
    verdict = check(kripke, formula)
    if not verdict.holds:
        print(f"witness {pretty(formula)}: formula does not hold")
        return FAIL
    path = extract_trace(kripke, formula, "witness")
    print(f"witness ({len(path)} steps):")
    print(format_trace(kripke, path))
    return OK


def _cmd_risk(args) -> int:
    from . import airplane

    try:
        result = airplane.risk_compare(args.p0, args.p1, args.p2)
    except ValueError as exc:
        raise CliError(str(exc))
    print(f"one_person {result.one_person}")
    print(f"two_person {result.two_person}")
    print(f"recommend {result.recommend}")
    return OK


def _cmd_door_sim(args) -> int:
    from . import door

    try:
        with open(args.script, encoding="utf-8") as fh:
            events = door.parse_script(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read script: {exc}")
    except door.DoorScriptError as exc:
        raise CliError(str(exc))
    sys.stdout.write(door.format_trace(door.door_run(events)))
    return OK


def _cmd_scenario(args) -> int:
    from . import airplane

    sys.stdout.write(serialize_model(airplane.build_airplane_model(args.variant)))
    return OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insiderctl",
        description="Explicit-state CTL model checking for actor-infrastructure security models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def model_opts(p):
        p.add_argument("model", help="model document path")
        p.add_argument("--variant", help="policy variant to activate")
        p.add_argument(
            "--assume",
            action="append",
            metavar="foe:LOC:ACTION:ID",
            help="add a foe-control assumption (repeatable)",
        )
        p.add_argument("--max-states", type=_positive_int, help="state exploration cap")

    p = sub.add_parser("check", help="evaluate a CTL formula over the reachable states")
    model_opts(p)
    p.add_argument("formula")
    p.add_argument("--trace", action="store_true", help="print a counterexample on failure")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reach", help="explore the reachable state space")
    model_opts(p)
    p.add_argument("--dot", metavar="FILE", help="write a GraphViz rendering")
    p.set_defaults(func=_cmd_reach)

    p = sub.add_parser("witness", help="shortest attack path for an EF formula")
    model_opts(p)
    p.add_argument("formula")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("risk", help="compare one-person and two-person rule danger")
    p.add_argument("--p0", type=float, required=True, help="probability a pilot is an insider")
    p.add_argument("--p1", type=float, required=True, help="terrorist entry, one-person rule")
    p.add_argument("--p2", type=float, required=True, help="terrorist entry, two-person rule")
    p.set_defaults(func=_cmd_risk)

    p = sub.add_parser("door-sim", help="simulate the cockpit door lock automaton")
    p.add_argument("script", help="event script path")
    p.set_defaults(func=_cmd_door_sim)

    p = sub.add_parser("scenario", help="built-in airplane scenario utilities")
    scen = p.add_subparsers(dest="scenario_command", required=True)
    p = scen.add_parser("export", help="print the scenario as a model document")
    p.add_argument("variant", choices=("baseline", "four_eyes"))
    p.set_defaults(func=_cmd_scenario)

    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    except (ModelError, ModelParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return ERROR
    except Exception as exc:
        # Exit 1 means "the check fails"; no unexpected fault may report it.
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return ERROR


def main() -> int:
    return run_command(sys.argv[1:])
