"""The state key, lookup-before-build successors and compiled policy
conditions, cross-checked on seeded random models.

``genmodels.random_model`` seeds 0-59 cover the ``get`` rule, insider
classes and deadlocking models.
"""

import pytest

from genmodels import random_model
from oracles import o_enables, o_reps, o_world
from insiderctl.ctl import encode, reachable
from insiderctl.model import (
    ACTIONS,
    ActorClassId,
    InfraGraph,
    compile_condition,
    enables,
    eval_condition,
)
from insiderctl.transition import successors

SEEDS = range(60)


def fresh(graph: InfraGraph) -> InfraGraph:
    """An equal snapshot built anew, with no cached key."""
    return InfraGraph(graph.edges, graph.placements, graph.credentials, graph.roles, graph.loc_value)


@pytest.fixture(scope="module")
def explored():
    return [(seed, reachable(random_model(seed))) for seed in SEEDS]


def test_seeds_cover_get_insiders_and_deadlocks(explored):
    rules = {label.rule for _, k in explored for out in k.edges for label, _ in out}
    assert rules == {"move", "get", "put", "put_remote"}
    assert any(len(cls) > 1 for _, k in explored for cls in k.model.resolver.classes)
    assert any(not out for _, k in explored for out in k.edges)


def test_state_keys_equal_fresh_encodings(explored):
    for seed, k in explored:
        for i, graph in enumerate(k.graphs):
            copy = fresh(graph)
            assert "_state" not in copy.__dict__
            assert k.states[i] == encode(copy), (seed, i)
            assert k.index[k.states[i]] == i


def test_successors_with_and_without_table_agree(explored):
    for seed, k in explored:
        for i, graph in enumerate(k.graphs):
            plain = successors(k.model, fresh(graph))
            for table in ({}, k.index):
                interned = successors(k.model, graph, table)
                assert [label for label, _, _ in interned] == [label for label, _ in plain]
                built = {}
                for (label, key, target), (_, expected) in zip(interned, plain):
                    assert key == encode(fresh(expected)), (seed, i, str(label))
                    if key in table:
                        assert target is None
                        target = k.graphs[table[key]]
                    else:
                        # each new key is built once per call
                        assert built.setdefault(key, target) is target
                    assert target == expected, (seed, i, str(label))


def test_compiled_conditions_agree_with_eval_condition(explored):
    for seed, k in explored:
        resolver = k.model.resolver
        reps = sorted({resolver.actor_of(i).representative for i in k.model.identities})
        for pmap in k.model.policy_variants.values():
            for policies in pmap.values():
                for pol in policies:
                    compiled = compile_condition(pol.condition, resolver)
                    for graph in k.graphs:
                        for rep in reps:
                            expected = eval_condition(
                                pol.condition, graph, ActorClassId(rep), resolver
                            )
                            assert compiled(graph, rep) == expected, (seed, pol, rep)


def test_compiled_access_agrees_with_the_naive_oracle(explored):
    for seed, k in explored:
        model, reps = k.model, o_reps(k.model)
        classes = sorted({model.resolver.actor_of(i).representative for i in model.identities})
        for graph in k.graphs:
            world = o_world(graph)
            for loc in model.locations:
                for action in ACTIONS:
                    for rep in classes:
                        got = enables(model, graph, loc, ActorClassId(rep), action)
                        assert got == o_enables(model, world, loc.name, rep, action, reps), (
                            seed, loc.name, action, rep,
                        )
