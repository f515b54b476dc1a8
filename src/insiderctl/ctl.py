"""Reachable state space construction and CTL labelling.

Each state is a flat state vector, ``encode(model, graph)``, of location
indices, credential and role sets and values (the policy map and the edges
live in the model and never change along a transition, so they are factored
out).  The reachable set is explored breadth-first over vectors, with
deterministic indexing, in an :class:`~insiderctl.transition.Exploration`
that :func:`successors` writes one whole edge row at a time; the state cap
is checked between rows, and no snapshot (:class:`InfraGraph`) is built.
Predicates run compiled over the vectors, and traces and DOT are rendered
from them; ``KripkeModel.graph(i)`` builds a state's snapshot on request.
State sets are ``frozenset``s of indices.
:func:`find_witness` compiles a propositional goal with
:func:`~insiderctl.model.vector_condition`, stops at the first state in it,
and takes its path over the rows written.

Labelling runs two primitives, each linear in states and distinct edges,
over an index: :meth:`~KripkeModel.backward`, each state's distinct
predecessors and out-degree, which a :class:`KripkeModel` builds in the pass
that checks its edges, and :meth:`~KripkeModel.label`, each named
predicate's satisfying set, built on first use.  EX b scans the
predecessors of b.  E[a U b] and A[a U b] are one backward worklist from b
through a: a state of a joins once one successor is in (E), or once all its
distinct successors are, counted down (A); under A a deadlock in a joins at
once, since AX is vacuously true there.  The other seven operators follow
by duality:

    AX f = !EX !f    EF f = E[true U f]    AF f = A[true U f]
    EG f = !AF !f    AG f = !EF !f
    E[a R b] = !A[!a U !b]                 A[a R b] = !E[!a U !b]

so a deadlock satisfies ``AG f`` whenever it satisfies ``f``, and never
``EG f``.  ``check`` holds when every initial state is in the satisfying set.

``debug=True`` keeps the fixpoint formulation as the reference, iterated
over the labelled edges by :func:`lfp_iterate`/:func:`gfp_iterate`: EX/AX f =
{s | some/every successor of s is in f}, E/A[f1 U f2] = lfp(Z -> f2 | (f1 &
{E,A}X Z)), E/A[f1 R f2] = gfp(Z -> f2 & (f1 | {E,A}X Z)), and AG f also as
!EF !f.  A difference raises :class:`MonotonicityError`, also under -O.
"""

from __future__ import annotations

from .model import And, InfraGraph, Model, ModelError, Not, Or, Pred, encode, leaves, tables
from .model import vector_condition
from .model import eval_predicate  # noqa: F401  (bench/layers.py times calls to ctl.eval_predicate)
from .record import record
from .transition import Exploration, TransitionLabel, successors


class ExplorationLimitError(RuntimeError):
    """Raised when reachability exceeds the configured state cap."""


class MonotonicityError(RuntimeError):
    """Raised when a fixpoint transformer misbehaves (non-monotone or
    failing to converge within the guaranteed bound), or when the debug
    reference disagrees with the labelling."""


class TraceError(ValueError):
    """Raised on witness/counterexample requests that do not match the
    formula shape or verdict."""


# ---------------------------------------------------------------------------
# Kripke structures


class OutEdges:
    """State ``i``'s out-edges, read-only, over a :class:`KripkeModel`'s flat
    lists: it iterates as ``(label, j)`` pairs and equals the list of them."""

    __slots__ = ("labels", "targets", "start", "stop")

    def __init__(self, labels: list, targets: list, start: int, stop: int) -> None:
        self.labels, self.targets, self.start, self.stop = labels, targets, start, stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __iter__(self):
        return zip(self.labels[self.start : self.stop], self.targets[self.start : self.stop])

    def __getitem__(self, i):
        return [*self][i]

    def __eq__(self, other) -> bool:
        return [*self] == ([*other] if type(other) is OutEdges else other)


@record
class KripkeModel:
    """Reachable state set (state vectors) with labelled edges and initial
    states.

    Always built by :func:`reachable`, which numbers states in discovery
    order.  Edges are compressed sparse rows: state ``i``'s are ``labels[a:b]``
    to ``targets[a:b]`` for ``a, b = offsets[i], offsets[i + 1]``, viewed by
    :attr:`edges` as rows of pairs.  The constructor checks, in the one pass
    that builds the predecessor index (:meth:`backward`), that every edge
    targets a state and that every state outside ``init`` has a predecessor
    with a lower number; so every state is reachable, and the state list is
    exactly the closure of the initial states.  :meth:`graph` builds a
    state's snapshot on each request, :meth:`label` a predicate's
    satisfying set on first.  ``index`` maps each vector to its number.
    """

    model: Model
    states: list[tuple]
    targets: list[int]
    labels: list[TransitionLabel]
    offsets: list[int]
    init: frozenset[int]
    index: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "_sat", {})  # the cache of label()
        n, targets, offsets = len(self.states), self.targets, self.offsets
        ends = (offsets[0], offsets[-1], len(self.labels)) if len(offsets) == n + 1 else None
        if ends != (0, len(targets), len(targets)):
            raise ModelError("inconsistent Kripke payload lengths")
        if not self.init or any(i not in range(n) for i in self.init):
            raise ModelError("initial states must be a non-empty subset of the state set")
        preds, degree, known = [[] for _ in range(n)], [], range(n)
        for i in range(n):
            succ = set(targets[offsets[i] : offsets[i + 1]])
            degree.append(len(succ))
            for j in succ:
                if j not in known:
                    raise ModelError(f"edge from state {i} targets unknown state {j}")
                preds[j].append(i)
        for j, p in enumerate(preds):
            if j not in self.init and not (p and p[0] < j):
                raise ModelError(
                    f"state {j} is not initial and has no predecessor with a lower number"
                )
        object.__setattr__(self, "_backward", (tuple(map(tuple, preds)), tuple(degree)))

    @property
    def edges(self) -> list[OutEdges]:
        """Each state's out-edges, in state order; built on each request."""
        labels, targets, offsets = self.labels, self.targets, self.offsets
        return [OutEdges(labels, targets, a, b) for a, b in zip(offsets, offsets[1:])]

    def graph(self, i: int) -> InfraGraph:
        """The validated snapshot of state ``i``: for the initial state
        ``model.initial``, for any other built from its vector on each
        request."""
        return self.model.initial if i == 0 else tables(self.model).graph(self.states[i])

    @property
    def graphs(self) -> list[InfraGraph]:
        """Every state's snapshot, in state order."""
        return [self.graph(i) for i in range(len(self.states))]

    @property
    def universe(self) -> frozenset[int]:
        return frozenset(range(len(self.states)))

    def successors_of(self, i: int) -> list[int]:
        return self.targets[self.offsets[i] : self.offsets[i + 1]]

    def backward(self) -> tuple[tuple, tuple]:
        """Each state's distinct predecessors, in ascending order, and its
        distinct successor count."""
        return self._backward

    def label(self, name: str) -> frozenset[int]:
        """The states where the named predicate holds; computed on first use."""
        sat = self._sat.get(name)
        if sat is None:
            holds = tables(self.model).predicate(name)
            sat = frozenset([i for i, v in enumerate(self.states) if holds(v, None)])
            self._sat[name] = sat
        return sat


def reachable(model: Model, *, max_states: int | None = None) -> KripkeModel:
    """Breadth-first closure of the transition rules from the initial
    snapshot, over state vectors.  States are indexed by discovery order;
    raises :class:`ExplorationLimitError` when ``max_states`` is exceeded.
    ``index`` maps each state's vector to its index."""
    x = Exploration(model, encode(model, model.initial))
    for v in x.states:  # the list grows while it is walked
        successors(model, v, x)
        _within(len(x.states), max_states)
    return KripkeModel(model, x.states, x.targets, x.labels, x.offsets, frozenset({0}), x.index)


def _within(n: int, max_states: int | None) -> None:
    """Raise :class:`ExplorationLimitError` if ``n`` states exceed ``max_states``."""
    if max_states is not None and n > max_states:
        raise ExplorationLimitError(f"state space exceeds the cap of {max_states} states")


# ---------------------------------------------------------------------------
# Fixpoint iteration


def lfp_iterate(transformer, universe: frozenset[int]) -> frozenset[int]:
    """Iterate a monotone transformer from the empty set to its least
    fixpoint; converges within ``|universe| + 1`` applications."""
    return _iterate(transformer, universe, True)


def gfp_iterate(transformer, universe: frozenset[int]) -> frozenset[int]:
    """Dual of :func:`lfp_iterate`: iterate downward from the universe."""
    return _iterate(transformer, universe, False)


def _iterate(transformer, universe: frozenset[int], least: bool) -> frozenset[int]:
    """The chain of :func:`lfp_iterate` (``least``) or :func:`gfp_iterate`."""
    name, way, current = ("lfp", "de", frozenset()) if least else ("gfp", "in", universe)
    for _ in range(len(universe) + 1):
        nxt = transformer(current)
        if not (current <= nxt if least else nxt <= current):
            raise MonotonicityError(f"{name} chain is not monotone non-{way}creasing")
        if nxt == current:
            return current
        current = nxt
    raise MonotonicityError(f"{name} failed to converge within {len(universe) + 1} iterations")


# ---------------------------------------------------------------------------
# Formulas


class CtlFormula:
    """Base class for CTL formula trees."""

    __slots__ = ()


# The atom Pred and the connectives Not/And/Or are model's, which conditions
# and predicates share.


@record
class EX(CtlFormula):
    arg: CtlFormula


@record
class AX(CtlFormula):
    arg: CtlFormula


@record
class EF(CtlFormula):
    arg: CtlFormula


@record
class AF(CtlFormula):
    arg: CtlFormula


@record
class EG(CtlFormula):
    arg: CtlFormula


@record
class AG(CtlFormula):
    arg: CtlFormula


@record
class EU(CtlFormula):
    left: CtlFormula
    right: CtlFormula


@record
class AU(CtlFormula):
    left: CtlFormula
    right: CtlFormula


@record
class ER(CtlFormula):
    left: CtlFormula
    right: CtlFormula


@record
class AR(CtlFormula):
    left: CtlFormula
    right: CtlFormula


def formula_predicates(formula: CtlFormula) -> set[str]:
    """All predicate names mentioned in a formula."""
    names, stack = set(), [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Pred):
            names.add(f.name)
        elif isinstance(f, (Not, And, Or)) or type(f) in _SHAPES:
            stack += [getattr(f, name) for name in f.__match_args__]
        else:
            raise ModelError(f"unknown formula node {f!r}")
    return names


# ---------------------------------------------------------------------------
# Evaluation


def eval_ctl(k: KripkeModel, formula: CtlFormula, *, debug: bool = False) -> frozenset[int]:
    """The exact satisfying subset of ``k``'s states."""
    # One frame per nesting level and no closure that refers to itself: deep
    # formulas fit the recursion limit, and no garbage waits for the collector.
    match formula:
        case Pred(name=name):
            return k.label(name)
        case Not(arg=x):
            return k.universe - eval_ctl(k, x, debug=debug)
        case And(left=x, right=y):
            return eval_ctl(k, x, debug=debug) & eval_ctl(k, y, debug=debug)
        case Or(left=x, right=y):
            return eval_ctl(k, x, debug=debug) | eval_ctl(k, y, debug=debug)
        case EX(arg=x) | AX(arg=x) | EF(arg=x) | AF(arg=x) | EG(arg=x) | AG(arg=x):
            a, b = None, eval_ctl(k, x, debug=debug)
        case EU(left=x, right=y) | AU(left=x, right=y) | ER(left=x, right=y) | AR(left=x, right=y):
            a, b = eval_ctl(k, x, debug=debug), eval_ctl(k, y, debug=debug)
        case _:
            raise ModelError(f"unknown formula node {formula!r}")
    quant, kind, left = _SHAPES[type(formula)]
    universe = k.universe
    if left is not None:
        a = universe if left else frozenset()
    if kind == "X":  # EX b: the predecessors of b; AX b = !EX !b
        preds = k.backward()[0]
        ex = frozenset([i for j in (b if quant == "E" else universe - b) for i in preds[j]])
        result = ex if quant == "E" else universe - ex
    elif kind == "U":
        result = _until(k, a, b, quant == "A")
    else:  # E[a R b] = !A[!a U !b], A[a R b] = !E[!a U !b]
        result = universe - _until(k, universe - a, universe - b, quant == "E")
    if debug:
        _check_reference(k, formula, quant, kind, a, b, result)
    return result


# Each temporal operator as (path quantifier, kind, left operand): EF/AF are
# until (U) with ``left`` true, EG/AG release (R) with ``left`` false.
_SHAPES = {
    EX: ("E", "X", None), AX: ("A", "X", None),
    EF: ("E", "U", True), AF: ("A", "U", True), EU: ("E", "U", None), AU: ("A", "U", None),
    EG: ("E", "R", False), AG: ("A", "R", False), ER: ("E", "R", None), AR: ("A", "R", None),
}


def _until(k: KripkeModel, a: frozenset[int], b: frozenset[int], every: bool) -> frozenset[int]:
    """E[a U b], or A[a U b] if ``every``: ``b``, grown backward through
    the states of ``a`` with one successor in, or under A with all their
    distinct successors in (counted down); under A a deadlock in ``a``
    joins at once."""
    preds, degree = k.backward()
    waiting = list(degree) if every else [1] * len(degree)
    found = set(b).union([i for i in a if not degree[i]] if every else ())
    todo = list(found)
    while todo:
        for i in preds[todo.pop()]:
            waiting[i] -= 1
            if not waiting[i] and i not in found and i in a:
                found.add(i)
                todo.append(i)
    return frozenset(found)


def _check_reference(k, formula, quant, kind, a, b, result) -> None:
    """Debug mode: ``result`` must equal the fixpoint of ``formula``'s set transformer
    over the labelled edges (monotone by construction)."""

    rows = list(map(k.successors_of, range(len(k.states))))

    def step(z, test=any if quant == "E" else all):  # EX z or AX z
        return frozenset(i for i, js in enumerate(rows) if test(map(z.__contains__, js)))

    universe = k.universe
    if kind == "X":
        expected = step(b)
    elif kind == "U":
        expected = lfp_iterate(lambda z: b | (a & step(z)), universe)
    else:
        expected = gfp_iterate(lambda z: b & (a | step(z)), universe)
    if isinstance(formula, AG):  # also as !EF !f
        dual = lfp_iterate(lambda z: (universe - b) | step(z, any), universe)
        if result != expected or result != universe - dual:
            raise MonotonicityError("AG/EF duality violated")
    if result != expected:
        raise MonotonicityError(f"{type(formula).__name__} disagrees with its fixpoint")


@record
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


@record
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
    return _first_path(_breadth_first(k, sources), sources, targets.__contains__)


def _breadth_first(k: KripkeModel, sources):
    """Yield ``(j, i, label)`` as state ``j`` is first reached, from ``i``,
    breadth-first from the sorted ``sources`` along ``k``'s edges."""
    order, labels, targets, offsets = sorted(sources), k.labels, k.targets, k.offsets
    seen = set(order)
    for i in order:  # the list grows while it is walked
        a, b = offsets[i], offsets[i + 1]
        for label, j in zip(labels[a:b], targets[a:b]):
            if j not in seen:
                seen.add(j)
                order.append(j)
                yield j, i, label


def _first_path(found, sources, goal) -> TracePath | None:
    """The path to the first source, else the first state ``found``
    yields, that passes ``goal``, unwound along the recorded parents."""
    for i in sorted(sources):
        if goal(i):
            return TracePath((i,), ())
    parent: dict[int, tuple[int, TransitionLabel]] = {}
    for j, i, label in found:
        parent[j] = (i, label)
        if goal(j):
            states, labels = [j], []
            while j not in sources:
                j, label = parent[j]
                states.append(j)
                labels.append(label)
            return TracePath(tuple(reversed(states)), tuple(reversed(labels)))
    return None


def shortest_path_via(k: KripkeModel, waypoints) -> TracePath | None:
    """Shortest path from an initial state through the given state vectors
    in order, as the concatenation of shortest legs; ``None`` when a
    waypoint is unreachable."""
    indices = [k.index.get(v) for v in waypoints]
    if None in indices:
        return None
    sources, states, labels = k.init, [], []
    for target in indices:
        leg = shortest_path(k, frozenset({target}), sources=sources)
        if leg is None:
            return None
        states += leg.states[1 if states else 0 :]  # each leg starts where the last ended
        labels += leg.labels
        sources = frozenset({target})
    return TracePath(tuple(states), tuple(labels))


# Each trace mode: the formula shape it takes, whether the path leads into
# sat(g) or out of it, and why there is none.
_TRACES = {
    "witness": (EF, True, "the EF formula does not hold"),
    "counterexample": (AG, False, "the AG formula holds"),
}


def trace_shape(formula: CtlFormula, mode: str) -> str | None:
    """The shape a ``mode`` trace takes, ``EF g`` or ``AG g``, unless ``formula`` has it."""
    if mode not in _TRACES:
        raise TraceError(f"unknown trace mode {mode!r}")
    shape = _TRACES[mode][0]
    return None if isinstance(formula, shape) else f"{shape.__name__} g"


def _trace_rule(formula: CtlFormula, mode: str) -> tuple:
    """``mode``'s ``(into, none)``; raises unless ``formula`` has its shape."""
    if need := trace_shape(formula, mode):
        raise TraceError(f"{mode} extraction requires a formula of shape {need}")
    return _TRACES[mode][1:]


def extract_trace(k: KripkeModel, formula: CtlFormula, mode: str) -> TracePath:
    """Witness for a holding ``EF g`` or counterexample for a failing
    ``AG g``: the shortest path from an initial state into sat(g),
    respectively out of sat(g)."""
    into, none = _trace_rule(formula, mode)
    sat = eval_ctl(k, formula.arg)
    path = shortest_path(k, sat if into else k.universe - sat)
    if path is None:
        raise TraceError(f"{mode} requested but {none}")
    return path


def find_witness(model: Model, formula: CtlFormula, *, max_states: int | None = None) -> tuple:
    """``(k, path)``: ``extract_trace``'s witness of ``EF g`` (None if it
    fails) and the states it indexes.  For ``g`` of predicates, ``!``, ``&``
    and ``|``, compiled by :func:`~insiderctl.model.vector_condition`, the
    search stops at the first goal state, and ``k`` is that
    :class:`~insiderctl.transition.Exploration`, cut back to end there; the
    cap counts the states up to the goal.  States are numbered
    breadth-first, so the shortest path over the rows written is the one on
    the whole structure.  Otherwise ``k`` is ``reachable(model)``."""
    _trace_rule(formula, "witness")
    if not all(isinstance(atom, Pred) for atom in leaves(formula.arg)):
        k = reachable(model, max_states=max_states)
        return k, shortest_path(k, eval_ctl(k, formula.arg))
    x = Exploration(model, encode(model, model.initial))
    goal, states = vector_condition(formula.arg, tables(model)), x.states
    if goal(states[0], None):
        return x, TracePath((0,), ())
    for i, v in enumerate(states):  # the list grows while it is walked
        before = len(states)
        successors(model, v, x)
        j = next((j for j in range(before, len(states)) if goal(states[j], None)), None)
        _within(len(states) if j is None else j + 1, max_states)
        if j is not None:  # cut back to the states up to j and the rows before i
            path = shortest_path(x, frozenset({j}), sources=frozenset({0}))
            for w in states[j + 1 :]:
                del x.index[w]
            a = x.offsets[i]
            del states[j + 1 :], x.offsets[i + 1 :], x.targets[a:], x.labels[a:]
            return x, path
    return x, None


# ---------------------------------------------------------------------------
# Presentation


def describe_graph(model: Model, graph: InfraGraph) -> str:
    """Compact one-line rendering of a snapshot's distinguishing fields
    (see :meth:`~insiderctl.model.Tables.describe`)."""
    return tables(model).describe(encode(model, graph))


def format_trace(k: KripkeModel | Exploration, path: TracePath) -> str:
    describe = tables(k.model).describe
    lines = [f"s{path.states[0]}: {describe(k.states[path.states[0]])}"]
    for label, state in zip(path.labels, path.states[1:]):
        lines.append(f"  --[{label}]--> s{state}: {describe(k.states[state])}")
    return "\n".join(lines)


def dot_export(k: KripkeModel) -> str:
    """GraphViz rendering with stable node and edge ordering."""
    chunks = ['digraph kripke {\n  rankdir=LR;\n  node [shape=box fontname="monospace"];\n']
    describe = tables(k.model).describe
    for i, v in enumerate(k.states):
        desc = describe(v).replace(" | ", "\\n")
        extra = " penwidth=2" if i in k.init else ""
        chunks.append(f'  s{i} [label="s{i}\\n{desc}"{extra}];\n')
    # Labels (interned) and state numbers are formatted once each; each
    # state's edge lines are joined into one chunk, which bounds the peak.
    tails: dict[int, str] = {}
    labels, targets, offsets = k.labels, k.targets, k.offsets
    names = [str(j) for j in range(len(k.states))]
    for i in range(len(k.states)):
        head, lines, a, b = f"  s{i} -> s", [], offsets[i], offsets[i + 1]
        for label, j in zip(labels[a:b], targets[a:b]):
            tail = tails.get(id(label))
            if tail is None:
                tail = tails[id(label)] = f' [label="{label}"];\n'
            lines.append(f"{head}{names[j]}{tail}")
        chunks.append("".join(lines))
    chunks.append("}\n")
    return "".join(chunks)
