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

Each snapshot has a state vector, ``encode(model, graph)``: one flat tuple of
location indices, credential and role sets and values (see
:class:`~insiderctl.model.Tables`) that hashes and compares in C.  A rule
instance changes one slot of it, so :func:`successors` works on vectors: it
derives each successor's vector by replacing that slot and reuses one
interned label per rule instance of the model.  Given a snapshot, it builds
the successor snapshots from those vectors.

The ``eval`` action exists in the action vocabulary but has no transition
rule; policies granting only ``eval`` are flagged by :func:`lint_model`.
"""

from __future__ import annotations

from .model import _EMPTY, InfraGraph, Location, Model, Tables, by_id, encode, node_indices, tables
from .model import enables  # noqa: F401  (bench/layers.py times calls to transition.enables)
from .record import record


@record(frozen=True)
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


def _label(t: Tables, rule: str, p: int, a: int, b, cred: str | None = None) -> TransitionLabel:
    """The label that an interning key of :func:`successors` stands for."""
    if rule == "move":
        return TransitionLabel(rule, t.ids[p], src=t.locs[a], dst=t.locs[b])
    if rule == "get":
        return TransitionLabel(rule, t.ids[p], giver=t.ids[a], loc=t.locs[b], credential=cred)
    return TransitionLabel(rule, t.ids[p], loc=t.locs[a], value=b)


def successors(model: Model, state) -> list:
    """Every enabled rule instance from ``state``, in deterministic order.

    ``state`` is a state vector (see :class:`~insiderctl.model.Tables`),
    and the result is a list of ``(label, successor vector)`` pairs; or it
    is a snapshot, and the result is a list of ``(label, successor
    snapshot)`` pairs built from those vectors.  No-op instances (a move to
    the current location, a credential already held, the current value)
    lead to an equal vector, or to the snapshot ``state`` itself.
    """
    t = tables(model)
    if not isinstance(state, InfraGraph):
        return _step(t, state, t.targets)
    v, edges = encode(model, state), state.edges
    # A snapshot keeps its own edges, which may differ from the model's.
    targets = t.targets if edges == t.edges else node_indices(t.locs, edges)
    return [
        (label, state if succ == v else t.graph(succ, edges))
        for label, succ in _step(t, v, targets)
    ]


def _step(t: Tables, v: tuple, targets: list) -> list:
    """The ``(label, successor vector)`` pairs of vector ``v``, where
    ``move`` may go to the location indices in ``targets``.  Each
    successor replaces one slot of ``v``; each label is interned in
    ``t.labels`` under its rule, slots and credential or value."""
    n, reps, labels = t.n, t.reps, t.labels
    moving, getting, putting = t.grant["move"], t.grant["get"], t.grant["put"]
    out: list = []
    append = out.append

    def label_of(key: tuple) -> TransitionLabel:
        label = labels[key] = _label(t, *key)
        return label

    # The location indices where each class may move and put, worked out
    # once per class for this vector.
    moves: dict = {}
    for p in range(n):
        src = v[p]
        if src in targets:
            rep = reps[p]
            ks = moves.get(rep)
            if ks is None:
                ks = moves[rep] = [k for k in targets if moving[k] and moving[k](v, rep)]
            for dst in ks:
                key = ("move", p, src, dst)
                append((labels.get(key) or label_of(key), v[:p] + (dst,) + v[p + 1 :]))

    for p in range(n):
        k = v[p]
        if k < 0 or not getting[k] or not getting[k](v, reps[p]):
            continue
        creds = sorted(_EMPTY.union(*(v[n + m] for m in t.members[reps[p]])))
        for r in range(n):
            if v[r] != k:
                continue
            held = v[n + r]
            for cred in creds:
                succ = v if cred in held else v[: n + r] + (held | {cred},) + v[n + r + 1 :]
                key = ("get", r, p, k, cred)
                append((labels.get(key) or label_of(key), succ))

    puts: dict = {}
    for rep in reps:
        if rep not in puts:
            puts[rep] = [k for k in t.writable if putting[k] and putting[k](v, rep)]

    def put(rule: str, p: int, k: int) -> None:
        slot = 3 * n + k
        for value in t.alphabet[k]:
            succ = v if value == v[slot] else v[:slot] + (value,) + v[slot + 1 :]
            key = (rule, p, k, value)
            append((labels.get(key) or label_of(key), succ))

    for p in range(n):
        if v[p] in puts[reps[p]]:
            put("put", p, v[p])

    for p in range(n):
        for k in puts[reps[p]]:
            put("put_remote", p, k)

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
