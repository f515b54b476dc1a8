"""Reference answers computed apart from the engine.

States, successors and the reachable set come from ``tests/oracles.py``
(``o_reach``): plain tuples keyed by location and identity names, rebuilt by
a naive breadth-first search.  Predicate atoms are evaluated with the
oracle's own condition evaluator on that encoding, and the temporal
operators by plain set iteration over the oracle's successor sets.  Formulas
come in the tuple form of :mod:`inputs`, not from the engine's parser.

The checks map each engine state to its oracle world through
``oracles.o_world`` and compare sets of worlds, so they hold whatever order
or numbering the engine gives its states.
"""

from __future__ import annotations

from collections import deque

import oracles
from insiderctl.model import (
    CountAtLeast,
    IsIn,
    PAnd,
    PAt,
    PBool,
    PCountAtLeast,
    PEnables,
    PInSet,
    PIsIn,
    PNot,
    POr,
)


class Reference:
    """The oracle's state space of one model, with a naive CTL labeller."""

    def __init__(self, model):
        self.model = model
        self.reps = oracles.o_reps(model)
        self.start = oracles.o_world(model.initial)
        seen, adjacency = oracles.o_reach(model)
        self.worlds = frozenset(seen)
        self.adjacency = adjacency
        self.pairs = frozenset((w, v) for w, out in adjacency.items() for v in out)
        self._labels: dict = {}

    # -- atoms --------------------------------------------------------------

    def _holds(self, expr, world) -> bool:
        m, reps = self.model, self.reps
        if isinstance(expr, PBool):
            return expr.value
        if isinstance(expr, PEnables):
            rep = reps.get(expr.identity, expr.identity)
            return oracles.o_enables(m, world, expr.loc.name, rep, expr.action, reps)
        if isinstance(expr, PAt):
            return expr.identity in oracles._placement(world, expr.loc.name)
        if isinstance(expr, PIsIn):
            return oracles.o_condition(IsIn(expr.loc, expr.value), world, None, reps, m)
        if isinstance(expr, PCountAtLeast):
            cond = CountAtLeast(expr.loc, expr.count)
            return oracles.o_condition(cond, world, None, reps, m)
        if isinstance(expr, PInSet):
            return expr.identity in m.identity_sets[expr.set_name]
        if isinstance(expr, PNot):
            return not self._holds(expr.arg, world)
        if isinstance(expr, PAnd):
            return self._holds(expr.left, world) and self._holds(expr.right, world)
        if isinstance(expr, POr):
            return self._holds(expr.left, world) or self._holds(expr.right, world)
        raise ValueError(f"naive labeller got unknown predicate node {expr!r}")

    # -- formulas -----------------------------------------------------------

    def label(self, f) -> frozenset:
        """The worlds that satisfy the tuple formula ``f``."""
        if f not in self._labels:
            self._labels[f] = frozenset(self._label(f))
        return self._labels[f]

    def _label(self, f) -> set:
        universe, adj = self.worlds, self.adjacency
        if isinstance(f, str):
            body = self.model.named_predicates[f].body
            return {w for w in universe if self._holds(body, w)}

        def ex(z):
            return {w for w in universe if any(v in z for v in adj[w])}

        def ax(z):
            return {w for w in universe if all(v in z for v in adj[w])}

        def lfp(step):
            z = set()
            while (nxt := step(z)) != z:
                z = nxt
            return z

        def gfp(step):
            z = set(universe)
            while (nxt := step(z)) != z:
                z = nxt
            return z

        op = f[0]
        a = self.label(f[1])
        b = self.label(f[2]) if len(f) > 2 else None
        if op == "not":
            return universe - a
        if op == "and":
            return a & b
        if op == "or":
            return a | b
        if op == "EX":
            return ex(a)
        if op == "AX":
            return ax(a)
        if op == "EF":
            return lfp(lambda z: a | ex(z))
        if op == "AF":
            return lfp(lambda z: a | ax(z))
        if op == "EG":
            return gfp(lambda z: a & ex(z))
        if op == "AG":
            return gfp(lambda z: a & ax(z))
        if op == "EU":
            return lfp(lambda z: b | (a & ex(z)))
        if op == "AU":
            return lfp(lambda z: b | (a & ax(z)))
        if op == "ER":
            return gfp(lambda z: b & (a | ex(z)))
        if op == "AR":
            return gfp(lambda z: b & (a | ax(z)))
        raise ValueError(f"naive labeller got unknown operator {op!r}")

    def distance(self, targets) -> int | None:
        """Length of a shortest path from the initial world into ``targets``."""
        dist = {self.start: 0}
        queue = deque([self.start])
        while queue:
            w = queue.popleft()
            if w in targets:
                return dist[w]
            for v in self.adjacency[w]:
                if v not in dist:
                    dist[v] = dist[w] + 1
                    queue.append(v)
        return None

    # -- checks of engine output -------------------------------------------

    def engine_worlds(self, k) -> list | None:
        """The oracle world of each engine state, or None when the engine's
        state space differs from the oracle's: other states, a duplicate,
        another initial state, or other distinct successor pairs."""
        worlds = [oracles.o_world(g) for g in k.graphs]
        if len(worlds) != len(k.states) or len(set(worlds)) != len(worlds):
            return None
        if set(worlds) != self.worlds or k.init != frozenset({worlds.index(self.start)}):
            return None
        pairs = {(worlds[i], worlds[j]) for i, out in enumerate(k.edges) for _, j in out}
        return worlds if pairs == self.pairs else None

    def same_set(self, worlds, indices, f) -> bool:
        return {worlds[i] for i in indices} == self.label(f)

    def valid_trace(self, worlds, k, path, goal) -> bool:
        """``path`` starts in the initial state, follows engine edges that
        are oracle successor pairs, ends in ``goal`` (a set of worlds), and
        is as short as the oracle's shortest path into ``goal``."""
        states, labels = path.states, path.labels
        if len(states) != len(labels) + 1 or not all(0 <= s < len(worlds) for s in states):
            return False
        if worlds[states[0]] != self.start:
            return False
        for a, label, b in zip(states, labels, states[1:]):
            if (label, b) not in k.edges[a] or (worlds[a], worlds[b]) not in self.pairs:
                return False
        return worlds[states[-1]] in goal and len(labels) == self.distance(goal)
