"""Explicit-state CTL model checking for actor-infrastructure security
models with insider impersonation."""

from .model import (
    ACTIONS,
    ActorPsyState,
    ActorResolver,
    AtomicPolicy,
    FoeControl,
    InfraGraph,
    InsiderDecl,
    Location,
    Model,
    ModelError,
    StatePredicate,
    build_resolver,
    enables,
    encode,
    eval_predicate,
    tipping_point,
)
from .transition import TransitionLabel, lint_model, move_graph, successors
from .ctl import (
    KripkeModel,
    Verdict,
    check,
    dot_export,
    eval_ctl,
    extract_trace,
    gfp_iterate,
    lfp_iterate,
    reachable,
    shortest_path,
    shortest_path_via,
)
from .formula import parse_formula, pretty
from .modelfile import parse_model, serialize_model

# The airplane scenario loads on first use, so a process that only checks
# a model document does not compile it.
_AIRPLANE = ("airplane", "build_airplane_model", "named_state", "risk_compare")


def __getattr__(name: str):
    if name not in _AIRPLANE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing the submodule also binds ``airplane`` in this namespace.
    from .airplane import build_airplane_model, named_state, risk_compare

    names = globals()
    names.update(
        build_airplane_model=build_airplane_model,
        named_state=named_state,
        risk_compare=risk_compare,
    )
    return names[name]


__all__ = [
    "ACTIONS", "ActorPsyState", "ActorResolver", "AtomicPolicy", "FoeControl",
    "InfraGraph", "InsiderDecl", "KripkeModel", "Location", "Model", "ModelError",
    "StatePredicate", "TransitionLabel", "Verdict", "airplane", "build_airplane_model",
    "build_resolver", "check", "ctl", "dot_export", "enables", "encode", "eval_ctl",
    "eval_predicate", "extract_trace", "formula", "gfp_iterate", "lfp_iterate",
    "lint_model", "model", "modelfile", "move_graph", "named_state", "parse_formula",
    "parse_model", "pretty", "reachable", "risk_compare", "serialize_model",
    "shortest_path", "shortest_path_via", "successors", "tipping_point", "transition",
]
