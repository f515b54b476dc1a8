"""The flat state vector, lookup-before-build successors and the policy
conditions compiled over the vector, cross-checked on seeded random models,
on the airplane with one and two extra cabin passengers, and on the paper's
variants with and without the cockpit foe-control assumption.

``genmodels.random_model`` seeds 0-59 cover the ``get`` rule, insider
classes and deadlocking models.
"""

import pytest

from genmodels import random_model
from oracles import o_enables, o_reps, o_world
from insiderctl import airplane
from insiderctl.ctl import encode, reachable
from insiderctl.model import (
    ACTIONS,
    ActorClassId,
    InfraGraph,
    Location,
    ModelError,
    enables,
    eval_condition,
    tables,
    vector_condition,
)
from insiderctl.transition import successors

SEEDS = range(60)


def fresh(graph: InfraGraph) -> InfraGraph:
    """An equal snapshot built anew, with no cached key."""
    return InfraGraph(graph.edges, graph.placements, graph.credentials, graph.roles, graph.loc_value)


def with_passengers(model, count: int):
    """``model`` with ``count`` extra credential-less identities in the cabin."""
    names = tuple(f"Pax{i}" for i in range(1, count + 1))
    g = model.initial
    placements = {**g.placements, airplane.cabin: g.placement(airplane.cabin) + names}
    initial = InfraGraph(g.edges, placements, g.credentials, g.roles, g.loc_value)
    return model._clone(identities=model.identities | set(names), initial=initial)


def paper_models():
    out = []
    for variant in ("baseline", "four_eyes"):
        model = airplane.build_airplane_model(variant)
        out.append((variant, model))
        out.append((variant + "+foe", model.with_assumptions([airplane.cockpit_foe_control()])))
    baseline = airplane.build_airplane_model("baseline")
    out.extend((f"baseline+{n}pax", with_passengers(baseline, n)) for n in (1, 2))
    return out


@pytest.fixture(scope="module")
def explored():
    models = [(seed, random_model(seed)) for seed in SEEDS] + paper_models()
    return [(name, reachable(model)) for name, model in models]


def test_seeds_cover_get_insiders_and_deadlocks(explored):
    random_ks = [k for name, k in explored if name in SEEDS]
    rules = {label.rule for k in random_ks for out in k.edges for label, _ in out}
    assert rules == {"move", "get", "put", "put_remote"}
    assert any(len(cls) > 1 for k in random_ks for cls in k.model.resolver.classes)
    assert any(not out for k in random_ks for out in k.edges)
    sizes = {name: len(k.states) for name, k in explored if name not in SEEDS}
    assert sizes["baseline"] == 243 and sizes["baseline+2pax"] == 243 * 4
    assert sizes["four_eyes"] == sizes["four_eyes+foe"] == 21


def test_state_keys_equal_fresh_encodings(explored):
    for name, k in explored:
        for i, graph in enumerate(k.graphs):
            copy = fresh(graph)
            assert "_state" not in copy.__dict__
            assert k.states[i] == encode(k.model, copy), (name, i)
            assert k.index[k.states[i]] == i


def test_successors_with_and_without_table_agree(explored):
    for name, k in explored:
        for i, graph in enumerate(k.graphs):
            plain = successors(k.model, fresh(graph))
            for table in ({}, k.index):
                interned = successors(k.model, graph, table)
                assert [label for label, _, _ in interned] == [label for label, _ in plain]
                built = {}
                for (label, key, target), (_, expected) in zip(interned, plain):
                    assert key == encode(k.model, fresh(expected)), (name, i, str(label))
                    if key in table:
                        assert target is None
                        target = k.graphs[table[key]]
                    else:
                        # each new key is built once per call
                        assert built.setdefault(key, target) is target
                    assert target == expected, (name, i, str(label))


def test_compiled_conditions_agree_with_eval_condition(explored):
    for name, k in explored:
        resolver, t = k.model.resolver, tables(k.model)
        reps = sorted({resolver.actor_of(i).representative for i in k.model.identities})
        for pmap in k.model.policy_variants.values():
            for policies in pmap.values():
                for pol in policies:
                    compiled = vector_condition(pol.condition, t)
                    for graph, v in zip(k.graphs, k.states):
                        for rep in reps:
                            expected = eval_condition(
                                pol.condition, graph, ActorClassId(rep), resolver
                            )
                            assert compiled(v, rep) == expected, (name, pol, rep)


def test_compiled_access_agrees_with_the_naive_oracle(explored):
    for name, k in explored:
        model, reps = k.model, o_reps(k.model)
        classes = sorted({model.resolver.actor_of(i).representative for i in model.identities})
        for graph in k.graphs:
            world = o_world(graph)
            for loc in model.locations:
                for action in ACTIONS:
                    for rep in classes:
                        got = enables(model, graph, loc, ActorClassId(rep), action)
                        assert got == o_enables(model, world, loc.name, rep, action, reps), (
                            name, loc.name, action, rep,
                        )


def test_encode_rejects_what_the_model_lacks(baseline_model):
    g = airplane.ex_graph()
    attic = Location(9, "attic")
    for bad in (
        InfraGraph(g.edges, {**g.placements, airplane.door: ("Zed",)}, g.credentials, g.roles, g.loc_value),
        InfraGraph(g.edges, {**g.placements, attic: ("Eve",)}, g.credentials, g.roles, g.loc_value),
        InfraGraph(g.edges, g.placements, {**g.credentials, "Zed": {"PIN"}}, g.roles, g.loc_value),
        InfraGraph(g.edges, g.placements, g.credentials, {**g.roles, "Zed": {"pilot"}}, g.loc_value),
        InfraGraph(g.edges, g.placements, g.credentials, g.roles, {**g.loc_value, attic: "dusty"}),
    ):
        with pytest.raises(ModelError, match="which the model lacks"):
            encode(baseline_model, bad)


def test_cached_vector_follows_the_model_layout(baseline_model):
    g = airplane.ex_graph()
    small = encode(baseline_model, g)
    bigger = with_passengers(baseline_model, 1)
    assert len(encode(bigger, g)) == len(small) + 3
    assert encode(baseline_model, g) == small
