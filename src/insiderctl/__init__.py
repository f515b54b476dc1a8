"""Explicit-state CTL model checking for actor-infrastructure security
models with insider impersonation."""

from .model import (
    ACTIONS,
    ActorClassId,
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
    eval_condition,
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
from .airplane import build_airplane_model, named_state, risk_compare

__all__ = [name for name in dir() if not name.startswith("_")]
