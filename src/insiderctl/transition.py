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

A state is a state vector, ``encode(model, graph)`` of its snapshot: one
flat tuple of location indices, credential and role sets and values (see
:class:`~insiderctl.model.Tables`) that hashes and compares in C.  A rule
instance changes one slot of it, so :func:`successors` derives each
successor's vector by replacing that slot and reuses one interned label per
rule instance of the model.  It writes each state's edge row whole into an
:class:`Exploration`, from the closures until the model has a generated row
writer (:mod:`insiderctl.nextstate`), built before the first row an
exploration writes once it knows ``THRESHOLD`` states, since each known
state is a row still to write; the closures stay the reference.

The ``eval`` action exists in the action vocabulary but has no transition
rule; policies granting only ``eval`` are flagged by :func:`lint_model`.
"""

from __future__ import annotations

from .model import _EMPTY, InfraGraph, Location, Model, Tables, by_id, tables
from .model import enables  # noqa: F401  (bench/layers.py times calls to transition.enables)
from .record import record

THRESHOLD = 64  # states an exploration knows before the model gets its own writer


@record
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


def _label(ids: tuple, locs: tuple, rule: str, p: int, a: int, b, cred=None) -> TransitionLabel:
    """The label that an interning key of :func:`successors` stands for."""
    if rule == "move":
        return TransitionLabel(rule, ids[p], src=locs[a], dst=locs[b])
    if rule == "get":
        return TransitionLabel(rule, ids[p], giver=ids[a], loc=locs[b], credential=cred)
    return TransitionLabel(rule, ids[p], loc=locs[a], value=b)


class Exploration:
    """Breadth-first search over state vectors from ``v``: ``states`` in
    discovery order, ``index`` from vector to position, and the edge rows
    written so far, laid out as in :class:`~insiderctl.ctl.KripkeModel`.
    Each row is written whole, so a caller checks a state cap between rows."""

    __slots__ = ("model", "states", "index", "targets", "labels", "offsets")

    def __init__(self, model: Model, v: tuple):
        self.model, self.states, self.index = model, [v], {v: 0}
        self.targets, self.labels, self.offsets = [], [], [0]

    def add(self, v: tuple) -> int:
        """The number of the new state ``v``."""
        j = self.index[v] = len(self.states)
        self.states.append(v)
        return j


def successors(model: Model, v: tuple, x: Exploration | None = None) -> list | range:
    """Write the edge row of the state vector ``v``, which the
    :class:`Exploration` ``x`` expands next, and return its positions: the
    label and successor number of each enabled rule instance, in
    deterministic order.  Each successor replaces one slot of ``v``; a
    no-op instance (a move to the current location, a credential already
    held, the current value) leads to ``v`` itself.  Without ``x``, the
    ``(label, successor vector)`` pairs of a one-state exploration from ``v``."""
    t = tables(model)
    if x is None:
        _row(t, v, x := Exploration(model, v))
        return [*zip(x.labels, map(x.states.__getitem__, x.targets))]
    start, step = len(x.targets), t.step
    if step is None and len(x.states) >= THRESHOLD:  # reachable writes a row per known state
        from .nextstate import build  # a small exploration never loads it

        step = t.step = build(t) or False  # False: the source does not compile
    if step:
        step(v, x)
    else:
        _row(t, v, x)
    return range(start, len(x.targets))


def _row(t: Tables, v: tuple, x: Exploration) -> None:
    """The row writer of :func:`successors` with the guards compiled into
    closures: the reference for :mod:`insiderctl.nextstate`."""
    n, reps, labels, targets, ids, locs = t.n, t.reps, t.labels, t.targets, t.ids, t.locs
    moving, getting, putting = t.grant["move"], t.grant["get"], t.grant["put"]
    i, get, add, al, at = len(x.offsets) - 1, x.index.get, x.add, x.labels.append, x.targets.append

    def edge(key: tuple, s: tuple) -> None:
        al(labels.get(key) or labels.setdefault(key, _label(ids, locs, *key)))
        at(i if s is v else j if (j := get(s, -1)) >= 0 else add(s))

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
                edge(("move", p, src, dst), v if dst == src else v[:p] + (dst,) + v[p + 1 :])

    for p in range(n):
        k = v[p]
        if k < 0 or not getting[k] or not getting[k](v, reps[p]):
            continue
        creds = sorted(_EMPTY.union(*(v[n + m] for m in t.at[reps[p]])))
        for r in range(n):
            if v[r] != k:
                continue
            held = v[n + r]
            for cred in creds:
                succ = v if cred in held else v[: n + r] + (held | {cred},) + v[n + r + 1 :]
                edge(("get", r, p, k, cred), succ)

    puts: dict = {}
    for rep in reps:
        if rep not in puts:
            puts[rep] = [k for k in t.writable if putting[k] and putting[k](v, rep)]

    def put(rule: str, p: int, k: int) -> None:
        slot = 3 * n + k
        for value in t.alphabet[k]:
            edge((rule, p, k, value), v if value == v[slot] else v[:slot] + (value,) + v[slot + 1 :])

    for p in range(n):
        if v[p] in puts[reps[p]]:
            put("put", p, v[p])

    for p in range(n):
        for k in puts[reps[p]]:
            put("put_remote", p, k)

    x.offsets.append(len(x.targets))


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
