import pytest

from insiderctl.model import (
    ActorPsyState,
    AtomicPolicy,
    InfraGraph,
    InsiderDecl,
    Location,
    Model,
    TrueCond,
    encode,
    tables,
)
from insiderctl.transition import lint_model, move_graph, successors
from insiderctl.airplane import (
    aid_graph0,
    build_airplane_model,
    cabin,
    cockpit,
    door,
    ex_graph,
)

from genmodels import random_model
from oracles import o_reach, o_world


class TestMoveGraph:
    def test_move_to_same_location_is_identity(self):
        assert move_graph("Bob", cockpit, cockpit, ex_graph()) == ex_graph()

    def test_move_bob_to_door(self):
        g = move_graph("Bob", cockpit, door, ex_graph())
        assert g.placement(cockpit) == ("Charly",)
        assert g.placement(door) == ("Bob",)
        assert g.placement(cabin) == ("Alice",)
        assert g == aid_graph0()

    def test_absent_source_is_identity(self):
        assert move_graph("Alice", cockpit, door, ex_graph()) == ex_graph()

    def test_only_placements_change(self):
        g = move_graph("Bob", cockpit, door, ex_graph())
        base = ex_graph()
        assert g.edges == base.edges
        assert g.credentials == base.credentials
        assert g.roles == base.roles
        assert g.loc_value == base.loc_value

    def test_canonical_order_restored(self):
        g = move_graph("Bob", cockpit, cabin, ex_graph())
        assert g.placement(cabin) == ("Alice", "Bob")


def successor_graphs(model, graph):
    """``successors`` of ``graph``'s vector, each successor as a snapshot."""
    t = tables(model)
    return [(label, t.graph(v)) for label, v in successors(model, encode(model, graph))]


class TestSuccessors:
    def test_contains_pilot_stepping_out(self, baseline_model):
        succ = successor_graphs(baseline_model, ex_graph())
        hits = [
            (label, g)
            for label, g in succ
            if label.rule == "move" and label.actor == "Bob" and label.dst == door
        ]
        assert len(hits) == 1
        assert hits[0][1] == aid_graph0()

    def test_contains_copilot_grounding_plane(self, baseline_model):
        succ = successor_graphs(baseline_model, ex_graph())
        hits = [
            g
            for label, g in succ
            if label.rule == "put"
            and label.actor == "Charly"
            and label.loc == cockpit
            and label.value == "ground"
        ]
        assert len(hits) == 1
        assert hits[0].value_of(cockpit) == "ground"

    def test_empty_policy_map_has_no_successors(self, baseline_model):
        empty = baseline_model._clone(policy_variants={"baseline": {}})
        assert successor_graphs(empty, ex_graph()) == []

    def test_deterministic_order(self, baseline_model):
        labels = [str(label) for label, _ in successor_graphs(baseline_model, ex_graph())]
        moves = [l for l in labels if l.startswith("move")]
        assert moves == [
            "move Alice cabin->cabin",
            "move Alice cabin->door",
            "move Alice cabin->cockpit",
            "move Bob cockpit->cabin",
            "move Bob cockpit->door",
            "move Charly cockpit->cabin",
            "move Charly cockpit->door",
        ]
        rules = [l.split()[0] for l in labels]
        assert rules == sorted(rules, key=("move", "get", "put", "put_remote").index)
        # identical calls give identical output
        assert labels == [str(label) for label, _ in successor_graphs(baseline_model, ex_graph())]

    def test_unplaced_insider_can_put_remotely(self, baseline_model):
        labels = {str(label) for label, _ in successor_graphs(baseline_model, ex_graph())}
        assert "put_remote Eve door=locked" in labels
        assert "put_remote Eve cockpit=ground" in labels

    def test_self_loop_put_emitted(self, baseline_model):
        succ = successor_graphs(baseline_model, ex_graph())
        self_loops = [g for label, g in succ if label.rule == "put" and label.value == "air"]
        assert self_loops and all(g == ex_graph() for g in self_loops)


def _get_model():
    """Two co-located actors, one credential, and a get-granting policy."""
    room = Location(0, "room")
    hall = Location(1, "hall")
    edges = frozenset({(room, hall)})
    graph = InfraGraph(edges, {room: ("Ann", "Ben")}, {"Ann": {"key"}}, {}, {})
    policies = {room: frozenset({AtomicPolicy(TrueCond(), frozenset({"get"}))})}
    return Model(
        locations=(room, hall),
        edges=edges,
        identities=frozenset({"Ann", "Ben"}),
        initial=graph,
        policy_variants={"baseline": policies},
    ), room


class TestGetRule:
    def test_credential_is_shared_with_colocated_actor(self):
        model, room = _get_model()
        succ = successor_graphs(model, model.initial)
        hits = [
            g
            for label, g in succ
            if label.rule == "get" and label.actor == "Ben" and label.giver == "Ann"
        ]
        assert len(hits) == 1
        assert hits[0].credentials["Ben"] == frozenset({"key"})
        assert hits[0].credentials["Ann"] == frozenset({"key"})

    def test_self_transfer_is_a_noop(self):
        model, room = _get_model()
        succ = successor_graphs(model, model.initial)
        hits = [
            g
            for label, g in succ
            if label.rule == "get" and label.actor == "Ann" and label.giver == "Ann"
        ]
        assert hits == [model.initial]

    def test_insider_class_shares_alter_ego_credentials(self):
        model, room = _get_model()
        insider = InsiderDecl(
            "Ben", frozenset({"Ann"}), ActorPsyState("angry", frozenset({"revenge"}))
        )
        model = model._clone(insiders=(insider,))
        # Ben holds nothing, but his class includes Ann's key, so acting as
        # the enabler he can seed Ann's credential into himself
        labels = {
            (label.giver, label.actor, label.credential)
            for label, _ in successor_graphs(model, model.initial)
            if label.rule == "get"
        }
        assert ("Ben", "Ben", "key") in labels


class TestPreservation:
    def sweep(self, kripke):
        graphs, edges = kripke.graphs, kripke.edges  # each read builds them anew
        base = graphs[0]
        for i, graph in enumerate(graphs):
            for label, j in edges[i]:
                succ = graphs[j]
                assert succ.edges == base.edges
                assert set(succ.actors()) == set(base.actors())

    def test_nodes_and_actors_preserved_baseline(self, baseline_kripke):
        self.sweep(baseline_kripke)

    def test_nodes_and_actors_preserved_four_eyes(self, four_eyes_kripke):
        self.sweep(four_eyes_kripke)

    def test_two_person_occupancy_preserved(self, four_eyes_kripke):
        graphs, edges = four_eyes_kripke.graphs, four_eyes_kripke.edges
        for i, graph in enumerate(graphs):
            if len(graph.placement(cockpit)) >= 2:
                for _, j in edges[i]:
                    assert len(graphs[j].placement(cockpit)) >= 2

    def test_random_models_match_naive_oracle(self):
        for seed in range(12):
            model = random_model(seed)
            from insiderctl.ctl import reachable

            kripke = reachable(model, max_states=20000)
            worlds, adjacency = o_reach(model)
            graphs, edges = kripke.graphs, kripke.edges
            assert {o_world(g) for g in graphs} == worlds
            for i, graph in enumerate(graphs):
                assert {o_world(graphs[j]) for _, j in edges[i]} == adjacency[o_world(graph)]


class TestLint:
    def test_eval_only_policy_is_flagged(self, baseline_model):
        noisy = dict(baseline_model.policy_map)
        noisy[cabin] = noisy[cabin] | {AtomicPolicy(TrueCond(), frozenset({"eval"}))}
        model = baseline_model._clone(policy_variants={"baseline": noisy})
        warnings = lint_model(model)
        assert len(warnings) == 1
        assert "eval" in warnings[0]

    def test_clean_model_has_no_warnings(self, baseline_model):
        assert lint_model(baseline_model) == []
