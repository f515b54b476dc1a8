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
instance changes one slot of it, so :func:`successors` derives each
successor's vector by replacing that slot, builds the successor snapshot
only when an interning table does not already hold the vector, and reuses
one interned label per rule instance of the model.

The ``eval`` action exists in the action vocabulary but has no transition
rule; policies granting only ``eval`` are flagged by :func:`lint_model`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import _EMPTY, InfraGraph, Location, Model, Tables, by_id, encode, tables
from .model import enables  # noqa: F401  (bench/layers.py times calls to transition.enables)


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


def successors(model: Model, graph: InfraGraph, table: dict | None = None) -> list:
    """Every enabled rule instance from ``graph``, in deterministic order.

    Without ``table``, a list of ``(label, successor graph)`` pairs.

    With an interning ``table`` (a mapping whose keys are state vectors), a
    list of ``(label, key, graph)`` triples: ``key`` is the successor's
    vector, ``encode(model, graph)`` with the one slot the rule changes
    replaced, and ``graph`` is ``None`` when ``key`` is already in ``table``.
    Only new keys are built into (fully validated) snapshots, each once per
    call, with the key cached on it.  No-op instances (a move to the current
    location, a credential already held, the current value) have the source
    key.
    """
    t = tables(model)
    v = encode(model, graph)
    n, reps, labels = t.n, t.reps, t.labels
    known = {} if table is None else table
    built = {v: graph}
    out: list = []

    def emit(key: tuple, succ: tuple) -> None:
        label = labels.get(key)
        if label is None:
            label = labels[key] = _label(t, *key)
        target = None
        if succ not in known:
            target = built.get(succ)
            if target is None:
                target = built[succ] = t.graph(succ, graph.edges)
        out.append((label, succ, target))

    memo: dict = {}

    def allowed(action: str, rep: str, among) -> list:
        """The location indices in ``among`` where ``rep``'s class may do
        ``action``; each action is asked about one ``among`` per call."""
        ks = memo.get((action, rep))
        if ks is None:
            judges = t.grant[action]
            ks = memo[(action, rep)] = [
                k for k in among if judges[k] is not None and judges[k](v, rep)
            ]
        return ks

    nodes = graph.nodes()
    targets = [k for k, loc in enumerate(t.locs) if loc in nodes]
    for p in range(n):
        if v[p] in targets:
            for dst in allowed("move", reps[p], targets):
                emit(("move", p, v[p], dst), v[:p] + (dst,) + v[p + 1 :])

    for p in range(n):
        k = v[p]
        if k < 0 or k not in allowed("get", reps[p], range(len(t.locs))):
            continue
        creds = sorted(_EMPTY.union(*(v[n + m] for m in t.members[reps[p]])))
        for r in range(n):
            if v[r] != k:
                continue
            held = v[n + r]
            for cred in creds:
                succ = v if cred in held else v[: n + r] + (held | {cred},) + v[n + r + 1 :]
                emit(("get", r, p, k, cred), succ)

    def put(rule: str, p: int, k: int) -> None:
        slot = 3 * n + k
        for value in t.alphabet[k]:
            emit((rule, p, k, value), v if value == v[slot] else v[:slot] + (value,) + v[slot + 1 :])

    for p in range(n):
        if v[p] in allowed("put", reps[p], t.writable):
            put("put", p, v[p])

    for p in range(n):
        for k in allowed("put", reps[p], t.writable):
            put("put_remote", p, k)

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
