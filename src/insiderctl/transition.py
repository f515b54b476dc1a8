"""State-transition semantics: the four rules and exhaustive successor
enumeration.

The rules are

* ``move``  -- a placed actor relocates to any graph node whose policy
  grants it ``move`` (there is no adjacency requirement);
* ``get``   -- an actor enabled for ``get`` shares a credential its class
  holds with a co-located actor;
* ``put``   -- an actor enabled for ``put`` at its own location writes one
  value from that location's alphabet;
* ``put_remote`` -- any model identity enabled for ``put`` at a location
  writes a value there, without having to be present anywhere.

Successors are emitted in a fixed order (rule, then identity, then location,
then value) so exploration is deterministic.  Self-loops (for example,
re-writing the value a location already has) are kept.

Each snapshot has a :class:`State` key, a tuple of strings and location ids
that hashes and compares in C.  A rule instance changes one field of it (a
move one identity's placement, a get one credential set, a put one location
value), so :func:`successors` derives each successor's key from the source
key and the rule's delta, and builds the successor snapshot only when an
interning table does not already hold that key.

The ``eval`` action exists in the action vocabulary but has no transition
rule; policies granting only ``eval`` are flagged by :func:`lint_model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .model import InfraGraph, Location, Model, by_id, enables

RULES = ("move", "get", "put", "put_remote")


@dataclass(frozen=True)
class TransitionLabel:
    """Identifies one rule instance.

    ``actor`` is the moving identity for ``move``, the receiving identity for
    ``get`` (with the enabling identity in ``giver``), and the writing
    identity for ``put``/``put_remote``.
    """

    rule: str
    actor: str
    src: Location | None = None
    dst: Location | None = None
    loc: Location | None = None
    giver: str | None = None
    credential: str | None = None
    value: str | None = None

    def __str__(self) -> str:
        if self.rule == "move":
            return f"move {self.actor} {self.src}->{self.dst}"
        if self.rule == "get":
            return f"get {self.actor} {self.credential} from {self.giver} at {self.loc}"
        return f"{self.rule} {self.actor} {self.loc}={self.value}"


class State(NamedTuple):
    """Canonical key of a snapshot; equal exactly when the snapshots'
    placements, credentials, roles and values are equal.  Graph edges are
    model constants and not part of the key.

    ``placements`` holds ``(identity, location id)`` pairs and
    ``credentials``/``roles`` hold ``(identity, sorted tokens)`` pairs for
    identities with a non-empty set, all in identity order; ``values`` holds
    ``(location id, value)`` pairs in location-id order.
    """

    placements: tuple
    credentials: tuple
    roles: tuple
    values: tuple


def encode(graph: InfraGraph) -> State:
    """The key of ``graph``, computed once and cached on the graph."""
    key = graph.__dict__.get("_state")
    if key is None:
        key = State(
            tuple(sorted((i, loc.id) for loc, ids in graph.placements.items() for i in ids)),
            tuple(sorted((i, tuple(sorted(c))) for i, c in graph.credentials.items())),
            tuple(sorted((i, tuple(sorted(r))) for i, r in graph.roles.items())),
            tuple(sorted((loc.id, v) for loc, v in graph.loc_value.items())),
        )
        object.__setattr__(graph, "_state", key)
    return key


def _with_credential(key: State, identity: str, credential: str) -> State:
    creds = dict(key.credentials)
    creds[identity] = tuple(sorted(creds.get(identity, ()) + (credential,)))
    return State(key.placements, tuple(sorted(creds.items())), key.roles, key.values)


def _with_value(key: State, loc: Location, value: str) -> State:
    values = dict(key.values)
    values[loc.id] = value
    return State(key.placements, key.credentials, key.roles, tuple(sorted(values.items())))


def move_graph(identity: str, src: Location, dst: Location, graph: InfraGraph) -> InfraGraph:
    """Relocate ``identity`` from ``src`` to ``dst``; unchanged when the
    identity is not at ``src`` or already at ``dst`` (hence a no-op when
    ``src == dst``)."""
    if identity not in graph.placement(src) or identity in graph.placement(dst):
        return graph
    placements = dict(graph.placements)
    placements[src] = tuple(x for x in placements[src] if x != identity)
    placements[dst] = placements.get(dst, ()) + (identity,)
    return InfraGraph(graph.edges, placements, graph.credentials, graph.roles, graph.loc_value)


def _grant(graph: InfraGraph, identity: str, credential: str) -> InfraGraph:
    credentials = dict(graph.credentials)
    credentials[identity] = graph.credentials_of(identity) | {credential}
    return InfraGraph(graph.edges, graph.placements, credentials, graph.roles, graph.loc_value)


def _put_value(graph: InfraGraph, loc: Location, value: str) -> InfraGraph:
    loc_value = dict(graph.loc_value)
    loc_value[loc] = value
    return InfraGraph(graph.edges, graph.placements, graph.credentials, graph.roles, loc_value)


def class_credentials(graph: InfraGraph, model: Model, identity: str) -> frozenset[str]:
    """Credentials available to ``identity``'s actor class."""
    actor = model.resolver.actor_of(identity)
    out: frozenset[str] = frozenset()
    for member in model.resolver.members(actor):
        out |= graph.credentials_of(member)
    return out


def successors(model: Model, graph: InfraGraph, table: dict | None = None) -> list:
    """Every enabled rule instance from ``graph``, in deterministic order.

    Without ``table``, a list of ``(label, successor graph)`` pairs.

    With an interning ``table`` (a mapping whose keys are :class:`State`
    keys), a list of ``(label, key, graph)`` triples: ``key`` is the
    successor's key, derived from ``encode(graph)`` and the rule's delta, and
    ``graph`` is ``None`` when ``key`` is already in ``table``.  Only new keys
    are built into (fully validated) snapshots, each once per call, with the
    key cached on it.  No-op instances (a move to the current location, a
    credential already held, the current value) have the source key.
    """
    key = encode(graph)
    known = {} if table is None else table
    built: dict[State, InfraGraph] = {}
    out: list = []

    def emit(label: TransitionLabel, succ: State, build, *args) -> None:
        target = None
        if succ not in known:
            target = built.get(succ)
            if target is None:
                target = built[succ] = build(*args)
                object.__setattr__(target, "_state", succ)
        out.append((label, succ, target))

    actor_of = model.resolver.actor_of
    allowed: dict = {}

    def enabled(loc: Location, actor, action: str) -> bool:
        memo = (loc.id, actor.representative, action)
        ok = allowed.get(memo)
        if ok is None:
            ok = allowed[memo] = enables(model, graph, loc, actor, action)
        return ok

    where = {i: loc for loc, ids in graph.placements.items() for i in ids}
    locations = by_id(model.locations)
    nodes = graph.nodes()
    targets = [loc for loc in locations if loc in nodes]
    placements = key.placements

    for pos, (a, _) in enumerate(placements):
        src = where[a]
        if src not in nodes:
            continue
        actor = actor_of(a)
        for dst in targets:
            if enabled(dst, actor, "move"):
                succ = State(
                    placements[:pos] + ((a, dst.id),) + placements[pos + 1 :],
                    key.credentials,
                    key.roles,
                    key.values,
                )
                label = TransitionLabel("move", a, src=src, dst=dst)
                emit(label, succ, move_graph, a, src, dst, graph)

    for a, _ in placements:
        loc = where[a]
        if not enabled(loc, actor_of(a), "get"):
            continue
        creds = sorted(class_credentials(graph, model, a))
        for receiver in graph.placement(loc):
            held = graph.credentials_of(receiver)
            for cred in creds:
                succ = key if cred in held else _with_credential(key, receiver, cred)
                label = TransitionLabel("get", receiver, giver=a, credential=cred, loc=loc)
                emit(label, succ, _grant, graph, receiver, cred)

    def put(rule: str, a: str, loc: Location) -> None:
        current = graph.loc_value.get(loc)
        for value in sorted(model.value_alphabet.get(loc, ())):
            succ = key if value == current else _with_value(key, loc, value)
            emit(TransitionLabel(rule, a, loc=loc, value=value), succ, _put_value, graph, loc, value)

    for a, _ in placements:
        loc = where[a]
        if enabled(loc, actor_of(a), "put"):
            put("put", a, loc)

    for a in sorted(model.identities):
        actor = actor_of(a)
        for loc in locations:
            if enabled(loc, actor, "put"):
                put("put_remote", a, loc)

    if table is None:
        return [(label, target) for label, _, target in out]
    return out


def lint_model(model: Model) -> list[str]:
    """Warnings for policy constructs that can never fire."""
    warnings = []
    for loc in by_id(model.locations):
        for pol in sorted(model.policies_at(loc), key=lambda p: sorted(p.actions)):
            if pol.actions == {"eval"}:
                warnings.append(
                    f"policy at {loc} grants only 'eval', which has no transition rule"
                )
    return warnings
