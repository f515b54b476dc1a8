"""Reachable state space construction and fixpoint-based CTL evaluation.

Each state is a flat state vector, ``encode(model, graph)``, of location
indices, credential and role sets and values (the policy map and the edges
live in the model and never change along a transition, so they are factored
out).  The reachable set is explored breadth-first over vectors with
deterministic indexing: :func:`successors` derives each successor's vector
from the source's and the rule's one-slot delta, and no snapshot
(:class:`InfraGraph`) is built.  Predicates run compiled over the vectors,
and traces and DOT are rendered from them; ``KripkeModel.graph(i)`` builds a
state's snapshot on request.  State sets are plain ``frozenset`` of indices.

The ten CTL operators are evaluated as least/greatest fixpoints of their
standard set transformers:

    EX f = {s | some successor of s is in f}
    AX f = {s | every successor of s is in f}      (vacuously true on deadlocks)
    EF f = lfp(Z -> f | EX Z)       AF f = lfp(Z -> f | AX Z)
    EG f = gfp(Z -> f & EX Z)       AG f = gfp(Z -> f & AX Z)
    EU/AU f1 f2 = lfp(Z -> f2 | (f1 & {E,A}X Z))
    ER/AR f1 f2 = gfp(Z -> f2 & (f1 | {E,A}X Z))

``check`` holds when every initial state is in the satisfying set.

Note on deadlocks: AX over an empty successor set is vacuously true, so a
deadlock state satisfies ``AG f`` whenever it satisfies ``f``.

In debug mode the engine spot-checks transformer monotonicity on random
subset pairs and checks the AG/EF duality (sat(AG f) equals the complement
of sat(EF not-f)) on every AG query; both raise :class:`MonotonicityError`,
also under ``python -O``.
"""

from __future__ import annotations

from .model import And, InfraGraph, Model, ModelError, Not, Or, encode, tables
from .model import eval_predicate  # noqa: F401  (bench/layers.py times calls to ctl.eval_predicate)
from .record import field, record
from .transition import TransitionLabel, successors


class ExplorationLimitError(RuntimeError):
    """Raised when reachability exceeds the configured state cap."""


class MonotonicityError(RuntimeError):
    """Raised when a fixpoint transformer misbehaves (non-monotone or
    failing to converge within the guaranteed bound), or when the debug
    AG/EF duality check finds two fixpoints that disagree."""


class TraceError(ValueError):
    """Raised on witness/counterexample requests that do not match the
    formula shape or verdict."""


# ---------------------------------------------------------------------------
# Kripke structures


@record
class KripkeModel:
    """Reachable state set (state vectors) with labelled edges and initial
    states.

    Always built by :func:`reachable`; the state list must be exactly the
    closure of the initial states under the stored edges, which the
    constructor verifies.  :meth:`graph` builds a state's snapshot.
    """

    model: Model
    states: list[tuple]
    edges: list[list[tuple[TransitionLabel, int]]]
    init: frozenset[int]
    index: dict = field(repr=False)
    _graphs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.states)
        if len(self.edges) != n:
            raise ModelError("inconsistent Kripke payload lengths")
        if not self.init or any(i not in range(n) for i in self.init):
            raise ModelError("initial states must be a non-empty subset of the state set")
        seen = set(self.init)
        frontier = sorted(self.init)
        while frontier:
            nxt = []
            for i in frontier:
                for _, j in self.edges[i]:
                    if j not in range(n):
                        raise ModelError(f"edge from state {i} targets unknown state {j}")
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        if len(seen) != n:
            raise ModelError(
                "state set is not the reachability closure of the initial states"
            )

    def graph(self, i: int) -> InfraGraph:
        """The validated snapshot of state ``i``: for the initial state the
        snapshot exploration started from, for any other built from its
        vector on first request."""
        graph = self._graphs.get(i)
        if graph is None:
            graph = self._graphs[i] = tables(self.model).graph(self.states[i])
        return graph

    @property
    def graphs(self) -> list[InfraGraph]:
        """Every state's snapshot, in state order."""
        return [self.graph(i) for i in range(len(self.states))]

    @property
    def universe(self) -> frozenset[int]:
        return frozenset(range(len(self.states)))

    def successors_of(self, i: int) -> list[int]:
        return [j for _, j in self.edges[i]]


def reachable(
    model: Model, *, initial: InfraGraph | None = None, max_states: int | None = None
) -> KripkeModel:
    """Breadth-first closure of the transition rules from the initial
    snapshot, over state vectors.  States are indexed by discovery order;
    raises :class:`ExplorationLimitError` when ``max_states`` is exceeded.
    ``index`` maps each state's vector to its index."""
    start = model.initial if initial is None else initial
    if start.edges != model.initial.edges:
        # Every state shares the start's edges, which the model's tables fix.
        model = model._clone(initial=start)
    states: list[tuple] = [encode(model, start)]
    index: dict[tuple, int] = {states[0]: 0}
    edges: list[list[tuple[TransitionLabel, int]]] = []
    # Breadth-first: states are expanded in discovery order, and the list
    # grows while it is walked.
    for v in states:
        out = []
        for label, succ in successors(model, v):
            j = index.get(succ)
            if j is None:
                if max_states is not None and len(states) >= max_states:
                    raise ExplorationLimitError(
                        f"state space exceeds the cap of {max_states} states"
                    )
                j = index[succ] = len(states)
                states.append(succ)
            out.append((label, j))
        edges.append(out)
    k = KripkeModel(model, states, edges, frozenset({0}), index)
    k._graphs[0] = start
    return k


# ---------------------------------------------------------------------------
# Fixpoint iteration


def _spot_check_monotone(transformer, universe: frozenset[int], seed: int) -> None:
    import random  # debug mode only; a plain check does not load it

    rng, items = random.Random(seed), sorted(universe)
    for _ in range(min(32, 4 * len(items) + 4)):
        p = frozenset(x for x in items if rng.random() < 0.5)
        q = p | frozenset(x for x in items if rng.random() < 0.5)
        if not transformer(p) <= transformer(q):
            raise MonotonicityError("transformer failed a monotonicity spot-check")


def lfp_iterate(transformer, universe: frozenset[int], *, debug: bool = False) -> frozenset[int]:
    """Iterate a monotone transformer from the empty set to its least
    fixpoint; converges within ``|universe| + 1`` applications."""
    if debug:
        _spot_check_monotone(transformer, universe, 0)
    current: frozenset[int] = frozenset()
    for _ in range(len(universe) + 1):
        nxt = transformer(current)
        if not current <= nxt:
            raise MonotonicityError("lfp chain is not monotone non-decreasing")
        if nxt == current:
            return current
        current = nxt
    raise MonotonicityError(
        f"lfp failed to converge within {len(universe) + 1} iterations"
    )


def gfp_iterate(transformer, universe: frozenset[int], *, debug: bool = False) -> frozenset[int]:
    """Dual of :func:`lfp_iterate`: iterate downward from the universe."""
    if debug:
        _spot_check_monotone(transformer, universe, 1)
    current = universe
    for _ in range(len(universe) + 1):
        nxt = transformer(current)
        if not nxt <= current:
            raise MonotonicityError("gfp chain is not monotone non-increasing")
        if nxt == current:
            return current
        current = nxt
    raise MonotonicityError(
        f"gfp failed to converge within {len(universe) + 1} iterations"
    )


# ---------------------------------------------------------------------------
# Formulas


class CtlFormula:
    """Base class for CTL formula trees."""

    __slots__ = ()


@record(frozen=True)
class Pred(CtlFormula):
    name: str


# The connectives are the ones conditions and predicates use.
FNot, FAnd, FOr = Not, And, Or


@record(frozen=True)
class EX(CtlFormula):
    arg: CtlFormula


@record(frozen=True)
class AX(CtlFormula):
    arg: CtlFormula


@record(frozen=True)
class EF(CtlFormula):
    arg: CtlFormula


@record(frozen=True)
class AF(CtlFormula):
    arg: CtlFormula


@record(frozen=True)
class EG(CtlFormula):
    arg: CtlFormula


@record(frozen=True)
class AG(CtlFormula):
    arg: CtlFormula


@record(frozen=True)
class EU(CtlFormula):
    left: CtlFormula
    right: CtlFormula


@record(frozen=True)
class AU(CtlFormula):
    left: CtlFormula
    right: CtlFormula


@record(frozen=True)
class ER(CtlFormula):
    left: CtlFormula
    right: CtlFormula


@record(frozen=True)
class AR(CtlFormula):
    left: CtlFormula
    right: CtlFormula


def formula_predicates(formula: CtlFormula) -> set[str]:
    """All predicate names mentioned in a formula."""
    match formula:
        case Pred(name=name):
            return {name}
        case Not(arg=a) | EX(arg=a) | AX(arg=a) | EF(arg=a) | AF(arg=a) | EG(arg=a) | AG(arg=a):
            return formula_predicates(a)
        case (
            And(left=a, right=b)
            | Or(left=a, right=b)
            | EU(left=a, right=b)
            | AU(left=a, right=b)
            | ER(left=a, right=b)
            | AR(left=a, right=b)
        ):
            return formula_predicates(a) | formula_predicates(b)
    raise ModelError(f"unknown formula node {formula!r}")


# ---------------------------------------------------------------------------
# Evaluation


def eval_ctl(k: KripkeModel, formula: CtlFormula, *, debug: bool = False) -> frozenset[int]:
    """The exact satisfying subset of ``k``'s states."""
    universe = k.universe

    def ex_step(target: frozenset[int]) -> frozenset[int]:
        return frozenset(i for i in universe if any(j in target for j in k.successors_of(i)))

    def ax_step(target: frozenset[int]) -> frozenset[int]:
        return frozenset(i for i in universe if all(j in target for j in k.successors_of(i)))

    def sat(f: CtlFormula) -> frozenset[int]:
        match f:
            case Pred(name=name):
                holds = tables(k.model).predicate(name)
                return frozenset(i for i, v in enumerate(k.states) if holds(v, None))
            case Not(arg=a):
                return universe - sat(a)
            case And(left=a, right=b):
                return sat(a) & sat(b)
            case Or(left=a, right=b):
                return sat(a) | sat(b)
            case EX(arg=a):
                return ex_step(sat(a))
            case AX(arg=a):
                return ax_step(sat(a))
            case EF(arg=a):
                fa = sat(a)
                return lfp_iterate(lambda z: fa | ex_step(z), universe, debug=debug)
            case AF(arg=a):
                fa = sat(a)
                return lfp_iterate(lambda z: fa | ax_step(z), universe, debug=debug)
            case EG(arg=a):
                fa = sat(a)
                return gfp_iterate(lambda z: fa & ex_step(z), universe, debug=debug)
            case AG(arg=a):
                fa = sat(a)
                result = gfp_iterate(lambda z: fa & ax_step(z), universe, debug=debug)
                if debug:
                    complement = universe - fa
                    dual = lfp_iterate(
                        lambda z: complement | ex_step(z), universe, debug=False
                    )
                    if result != universe - dual:
                        raise MonotonicityError("AG/EF duality violated")
                return result
            case EU(left=a, right=b):
                fa, fb = sat(a), sat(b)
                return lfp_iterate(lambda z: fb | (fa & ex_step(z)), universe, debug=debug)
            case AU(left=a, right=b):
                fa, fb = sat(a), sat(b)
                return lfp_iterate(lambda z: fb | (fa & ax_step(z)), universe, debug=debug)
            case ER(left=a, right=b):
                fa, fb = sat(a), sat(b)
                return gfp_iterate(lambda z: fb & (fa | ex_step(z)), universe, debug=debug)
            case AR(left=a, right=b):
                fa, fb = sat(a), sat(b)
                return gfp_iterate(lambda z: fb & (fa | ax_step(z)), universe, debug=debug)
        raise ModelError(f"unknown formula node {f!r}")

    return sat(formula)


@record(frozen=True)
class Verdict:
    holds: bool
    sat: frozenset[int]


def check(k: KripkeModel, formula: CtlFormula, *, debug: bool = False) -> Verdict:
    """Model checking judgment: holds when every initial state satisfies
    the formula."""
    satisfying = eval_ctl(k, formula, debug=debug)
    return Verdict(holds=k.init <= satisfying, sat=satisfying)


# ---------------------------------------------------------------------------
# Paths, witnesses, counterexamples


@record(frozen=True)
class TracePath:
    """A labelled path: ``states[0]`` is an initial state and
    ``labels[i]`` takes ``states[i]`` to ``states[i + 1]``."""

    states: tuple[int, ...]
    labels: tuple[TransitionLabel, ...]

    def __len__(self) -> int:
        return len(self.labels)


def shortest_path(
    k: KripkeModel, targets: frozenset[int], *, sources: frozenset[int] | None = None
) -> TracePath | None:
    """Shortest labelled path from a source to a target; BFS with
    deterministic tie-breaks (state index, then edge order).  A source
    already in the target set gives a length-0 path."""
    sources = k.init if sources is None else sources
    for i in sorted(sources):
        if i in targets:
            return TracePath((i,), ())
    parent: dict[int, tuple[int, TransitionLabel]] = {}
    seen = set(sources)
    frontier = sorted(sources)
    while frontier:
        nxt = []
        for i in frontier:
            for label, j in k.edges[i]:
                if j in seen:
                    continue
                seen.add(j)
                parent[j] = (i, label)
                if j in targets:
                    states = [j]
                    labels = []
                    cur = j
                    while cur not in sources:
                        prev, lab = parent[cur]
                        states.append(prev)
                        labels.append(lab)
                        cur = prev
                    return TracePath(tuple(reversed(states)), tuple(reversed(labels)))
                nxt.append(j)
        frontier = nxt
    return None


def shortest_path_via(k: KripkeModel, waypoints) -> TracePath | None:
    """Shortest path from an initial state through the given states in
    order, as the concatenation of shortest legs."""
    indices = []
    for st in waypoints:
        i = k.index.get(st) if isinstance(st, tuple) else st
        if i is None:
            return None
        indices.append(i)
    sources = k.init
    states: list[int] = []
    labels: list[TransitionLabel] = []
    for target in indices:
        leg = shortest_path(k, frozenset({target}), sources=sources)
        if leg is None:
            return None
        if states:
            states.extend(leg.states[1:])
        else:
            states.extend(leg.states)
        labels.extend(leg.labels)
        sources = frozenset({target})
    return TracePath(tuple(states), tuple(labels))


def extract_trace(k: KripkeModel, formula: CtlFormula, mode: str) -> TracePath:
    """Witness for a holding ``EF g`` or counterexample for a failing
    ``AG g``: the shortest path from an initial state into sat(g),
    respectively out of sat(g)."""
    if mode == "witness":
        if not isinstance(formula, EF):
            raise TraceError("witness extraction requires a formula of shape EF g")
        goal = eval_ctl(k, formula.arg)
        path = shortest_path(k, goal)
        if path is None:
            raise TraceError("witness requested but the EF formula does not hold")
        return path
    if mode == "counterexample":
        if not isinstance(formula, AG):
            raise TraceError("counterexample extraction requires a formula of shape AG g")
        bad = k.universe - eval_ctl(k, formula.arg)
        path = shortest_path(k, bad)
        if path is None:
            raise TraceError("counterexample requested but the AG formula holds")
        return path
    raise TraceError(f"unknown trace mode {mode!r}")


# ---------------------------------------------------------------------------
# Presentation


def describe_graph(model: Model, graph: InfraGraph) -> str:
    """Compact one-line rendering of a snapshot's distinguishing fields
    (see :meth:`~insiderctl.model.Tables.describe`)."""
    return tables(model).describe(encode(model, graph))


def format_trace(k: KripkeModel, path: TracePath) -> str:
    describe = tables(k.model).describe
    lines = [f"s{path.states[0]}: {describe(k.states[path.states[0]])}"]
    for label, state in zip(path.labels, path.states[1:]):
        lines.append(f"  --[{label}]--> s{state}: {describe(k.states[state])}")
    return "\n".join(lines)


def dot_export(k: KripkeModel) -> str:
    """GraphViz rendering with stable node and edge ordering."""
    lines = ["digraph kripke {", "  rankdir=LR;", '  node [shape=box fontname="monospace"];']
    describe = tables(k.model).describe
    for i, v in enumerate(k.states):
        desc = describe(v).replace(" | ", "\\n").replace('"', "'")
        extra = " penwidth=2" if i in k.init else ""
        lines.append(f'  s{i} [label="s{i}\\n{desc}"{extra}];')
    # Edges share interned labels, so each label is formatted once.
    texts: dict[int, str] = {}
    for i, out in enumerate(k.edges):
        for label, j in out:
            text = texts.get(id(label))
            if text is None:
                text = texts[id(label)] = str(label).replace('"', "'")
            lines.append(f'  s{i} -> s{j} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
