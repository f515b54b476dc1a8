"""The flat state vector, successors over vectors, snapshots built on
request, and the policy conditions and named predicates compiled over the
vector, cross-checked on seeded random models, on the airplane with one and
two extra cabin passengers, and on the paper's variants with and without the
cockpit foe-control assumption.

``genmodels.random_model`` seeds 0-59 cover the ``get`` rule, insider
classes and deadlocking models.
"""

import pytest

from genmodels import random_model, with_passengers
from oracles import o_enables, o_reps, o_world
from insiderctl import airplane
from insiderctl.ctl import (
    Pred,
    check,
    dot_export,
    encode,
    extract_trace,
    format_trace,
    reachable,
    shortest_path,
)
from insiderctl.formula import parse_formula
from insiderctl.model import (
    ACTIONS,
    ActorClassId,
    InfraGraph,
    Location,
    ModelError,
    enables,
    eval_condition,
    eval_predicate,
    tables,
    vector_condition,
)
from insiderctl.transition import successors

SEEDS = range(60)


def fresh(graph: InfraGraph) -> InfraGraph:
    """An equal snapshot built anew, with no cached key."""
    return InfraGraph(graph.edges, graph.placements, graph.credentials, graph.roles, graph.loc_value)


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


def test_vector_successors_agree_with_graph_successors(explored):
    for name, k in explored:
        for i, v in enumerate(k.states):
            plain_source = fresh(k.graph(i))
            plain = successors(k.model, plain_source)
            vectors = successors(k.model, v)
            assert [label for label, _ in vectors] == [label for label, _ in plain]
            for (label, key), (_, expected) in zip(vectors, plain):
                assert key == encode(k.model, fresh(expected)), (name, i, str(label))
                assert k.graph(k.index[key]) == expected, (name, i, str(label))
                if key == v:  # a no-op leads back to the snapshot itself
                    assert expected is plain_source, (name, i, str(label))


def test_snapshots_on_request_round_trip(explored):
    for name, k in explored:
        assert k.graph(0) == k.model.initial
        for i, v in enumerate(k.states):
            graph = k.graph(i)
            assert graph is k.graph(i)
            assert graph == fresh(graph), (name, i)
            assert encode(k.model, fresh(graph)) == v, (name, i)
        assert k.graphs == [k.graph(i) for i in range(len(k.states))]


def test_compiled_predicates_agree_with_eval_predicate(explored):
    for name, k in explored:
        t = tables(k.model)
        for pname, pred in k.model.named_predicates.items():
            args = [None] if pred.param is None else sorted(k.model.identities) + ["Nobody"]
            for arg in args:
                compiled = t.predicate(pname, arg)
                for i, v in enumerate(k.states):
                    expected = eval_predicate(pred, k.model, k.graph(i), arg)
                    assert compiled(v, None) == expected, (name, pname, arg, i)


def test_predicate_errors_are_model_errors(baseline_kripke):
    t = tables(baseline_kripke.model)
    for name, arg, message in (
        ("nope", None, "unknown predicate name 'nope'"),
        ("global_ok", None, "requires an identity argument"),
        ("eve_ok", "Eve", "takes no argument"),
    ):
        with pytest.raises(ModelError, match=message):
            t.predicate(name, arg)
    with pytest.raises(ModelError, match="requires an identity argument"):
        check(baseline_kripke, Pred("global_ok"))


def test_predicates_are_compiled_once(baseline_kripke):
    t = tables(baseline_kripke.model)
    assert t.predicate("eve_ok") is t.predicate("eve_ok")
    assert t.predicate("global_ok", "Eve") is t.predicate("global_ok", "Eve")
    assert t.predicate("global_ok", "Eve") is not t.predicate("global_ok", "Bob")
    for _ in range(2):
        with pytest.raises(ModelError, match="unknown predicate name 'nope'"):
            t.predicate("nope")


def test_snapshots_share_the_model_edge_set(baseline_kripke):
    k = baseline_kripke
    edges = k.graph(0).edges
    assert all(k.graph(i).edges is edges for i in range(len(k.states)))
    a, b = next(iter(edges))
    listed = InfraGraph([[a, b], [b, a]], {}, {}, {}, {})
    assert listed.edges == frozenset({(a, b), (b, a)})


def test_exploring_from_a_snapshot_with_other_edges(baseline_model):
    g = baseline_model.initial
    edges = frozenset(e for e in g.edges if airplane.cockpit not in e)
    start = InfraGraph(edges, g.placements, g.credentials, g.roles, g.loc_value)
    k = reachable(baseline_model, initial=start)
    assert k.graph(0) == start and len(k.states) < 243
    for i in range(len(k.states)):
        assert k.graph(i).edges == edges
        expected = [(label, k.graph(j)) for label, j in k.edges[i]]
        assert successors(baseline_model, k.graph(i)) == expected


def test_engine_builds_no_snapshot(monkeypatch):
    model = with_passengers(airplane.build_airplane_model("baseline"), 1)
    built = []
    post_init = InfraGraph.__post_init__

    def counting(graph):
        built.append(graph)
        post_init(graph)

    monkeypatch.setattr(InfraGraph, "__post_init__", counting)
    k = reachable(model)
    assert check(k, parse_formula("AG (EF eve_ok)")).holds
    dot_export(k)
    for formula, mode in (("EF eve_violates", "witness"), ("AG eve_ok", "counterexample")):
        format_trace(k, extract_trace(k, parse_formula(formula), mode))
    format_trace(k, shortest_path(k, frozenset({len(k.states) - 1})))
    assert len(k.states) == 486 and built == []
    assert k.graph(0) is model.initial and built == []
    k.graph(1)
    assert len(built) == 1


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
