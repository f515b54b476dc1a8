import cProfile
import io
import pstats
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from genmodels import with_passengers
from insiderctl.cli import run_command
from insiderctl.modelfile import serialize_model
from insiderctl.model import AllAtAuthorized, CountAtLeast, TrueCond, enables
from insiderctl.airplane import (
    AIRPLANE_ACTORS,
    aid_graph,
    aid_graph0,
    agid_graph,
    build_airplane_model,
    cabin,
    cockpit,
    cockpit_foe_control,
    door,
    ex_graph,
    global_policy,
    NAMED_STATES,
    named_infrastructure,
    named_state,
    risk_compare,
    safety,
    security,
)
from insiderctl.ctl import encode, reachable


class TestNamedStates:
    def test_initial_scenario(self):
        g = named_state("Airplane_scenario")
        assert g.placement(cockpit) == ("Bob", "Charly")
        assert g.placement(cabin) == ("Alice",)
        assert g.value_of(door) == "norm"
        assert g.value_of(cockpit) == "air"

    def test_in_danger(self):
        g = named_state("Airplane_in_danger")
        assert g.placement(cockpit) == ("Charly",)
        assert g.placement(cabin) == ("Alice", "Bob")
        assert g.value_of(door) == "locked"

    def test_getting_in_danger0(self):
        g = named_state("Airplane_getting_in_danger0")
        assert g.placement(cockpit) == ("Charly",)
        assert g.placement(door) == ("Bob",)
        assert g.placement(cabin) == ("Alice",)
        assert g.value_of(door) == "norm"

    def test_variant_pairing(self):
        model, graph = named_infrastructure("Airplane_not_in_danger_init")
        assert model.variant == "four_eyes"
        assert graph == ex_graph()

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named_state("Airplane_on_fire")


class TestPolicyShapes:
    def test_baseline_cockpit_move_guard(self, baseline_model):
        from insiderctl.model import CondAnd, HasCred, IsIn, RequesterAt

        move_pols = [
            p for p in baseline_model.policies_at(cockpit) if p.actions == {"move"}
        ]
        assert len(move_pols) == 1
        expected = CondAnd(CondAnd(RequesterAt(cabin), HasCred("PIN")), IsIn(door, "norm"))
        assert move_pols[0].condition == expected

    def test_four_eyes_cockpit_put_guard(self, four_eyes_model):
        put_pols = [p for p in four_eyes_model.policies_at(cockpit) if p.actions == {"put"}]
        assert len(put_pols) == 1
        cond = put_pols[0].condition
        text = repr(cond)
        assert repr(CountAtLeast(cockpit, 2)) in text
        assert repr(AllAtAuthorized(cockpit, AIRPLANE_ACTORS)) in text

    def test_cabin_move_differs_between_variants(self, baseline_model, four_eyes_model):
        from insiderctl.model import RequesterAt

        (base,) = baseline_model.policies_at(cabin)
        assert base.condition == TrueCond()
        (four,) = four_eyes_model.policies_at(cabin)
        assert four.condition == RequesterAt(door)

    def test_baseline_door_carries_put_pair_but_four_eyes_does_not(
        self, baseline_model, four_eyes_model
    ):
        assert any("put" in p.actions for p in baseline_model.policies_at(door))
        assert not any("put" in p.actions for p in four_eyes_model.policies_at(door))


class TestGlobalPolicy:
    def test_pilot_and_copilot_comply(self, baseline_model):
        assert global_policy(baseline_model, ex_graph(), "Bob")
        assert global_policy(baseline_model, ex_graph(), "Charly")

    def test_insider_violates(self, baseline_model):
        assert not global_policy(baseline_model, ex_graph(), "Eve")

    def test_matches_enables_for_outsiders(self, baseline_model):
        m = baseline_model
        expected = not enables(m, ex_graph(), cockpit, m.resolver.actor_of("Eve"), "put")
        assert global_policy(m, ex_graph(), "Eve") == expected


class TestSafetySecurity:
    def test_attendant_is_safe_initially(self, baseline_model):
        assert safety(baseline_model, ex_graph(), "Alice")

    def test_pilot_is_secure_initially(self, baseline_model):
        assert security(baseline_model, ex_graph(), "Bob")

    def test_security_holds_for_anyone_initially(self, baseline_model):
        for ident in sorted(baseline_model.identities):
            assert security(baseline_model, ex_graph(), ident)

    def test_locked_door_breaks_safety(self, baseline_model):
        assert not safety(baseline_model, aid_graph(), "Bob")

    def test_locked_door_complementarity_sweep(self, baseline_kripke):
        # wherever the door is locked, security holds and safety fails for
        # every airplane actor (their only way in is the move policy)
        k = baseline_kripke
        for graph in k.graphs:
            if graph.value_of(door) != "locked":
                continue
            for ident in sorted(AIRPLANE_ACTORS):
                assert security(k.model, graph, ident)
                assert not safety(k.model, graph, ident)


class TestMisnamedState:
    def test_not_in_danger_is_vacuously_compliant(self):
        model, graph = named_infrastructure("Airplane_not_in_danger")
        for ident in sorted(model.identities):
            assert global_policy(model, graph, ident)

    def test_but_unreachable_from_the_proper_initial_state(self, four_eyes_kripke):
        assert encode(four_eyes_kripke.model, aid_graph()) not in four_eyes_kripke.index


class TestFourEyesSweeps:
    def test_two_person_invariant(self, four_eyes_kripke):
        assert all(len(g.placement(cockpit)) >= 2 for g in four_eyes_kripke.graphs)

    def test_insider_never_in_cockpit(self, four_eyes_kripke):
        assert all("Eve" not in g.placement(cockpit) for g in four_eyes_kripke.graphs)

    def test_cockpit_always_has_a_non_foe(self, four_eyes_kripke):
        m = four_eyes_kripke.model
        foe = m.resolver.actor_of("Eve")
        for g in four_eyes_kripke.graphs:
            assert any(m.resolver.actor_of(x) != foe for x in g.placement(cockpit))

    def test_cockpit_occupants_are_airplane_actors(self, four_eyes_kripke):
        for g in four_eyes_kripke.graphs:
            assert set(g.placement(cockpit)) <= AIRPLANE_ACTORS

    def test_assumption_does_not_change_the_state_set(self, four_eyes_kripke, assumed_kripke):
        assert set(four_eyes_kripke.states) == set(assumed_kripke.states)


class TestRisk:
    def test_two_person_rule_is_p2(self):
        assert risk_compare(0.1, 0.2, 0.5).two_person == 0.5

    def test_zero_case(self):
        assert risk_compare(0.0, 0.0, 0.1).one_person == 0.0

    def test_inclusion_exclusion_exact(self):
        r = risk_compare(0.001, 0.002, 0.5)
        assert r.one_person == 0.001 + 0.002 - 0.001 * 0.002
        assert r.one_person == pytest.approx(0.002998, rel=1e-12)

    def test_recommendation(self):
        assert risk_compare(0.0, 0.0, 0.1).recommend == "one_person"
        assert risk_compare(0.3, 0.3, 0.1).recommend == "two_person"
        assert risk_compare(0.0, 0.5, 0.5).recommend == "tie"

    def test_out_of_range_rejected(self):
        for bad in ((-0.1, 0, 0), (0, 1.5, 0), (0, 0, 2)):
            with pytest.raises(ValueError):
                risk_compare(*bad)


class TestFoeControlProof:
    def test_insider_disabled_everywhere_with_assumption(self, assumed_kripke):
        m = assumed_kripke.model
        foe = m.resolver.actor_of("Eve")
        for g in assumed_kripke.graphs:
            assert not enables(m, g, cockpit, foe, "put")

    def test_without_assumption_some_state_enables_the_insider(self, four_eyes_kripke):
        m = four_eyes_kripke.model
        foe = m.resolver.actor_of("Eve")
        assert any(enables(m, g, cockpit, foe, "put") for g in four_eyes_kripke.graphs)


class TestBuiltOnce:
    """The policy variants, predicates and insider declaration are built
    once per process; every snapshot is built per call."""

    def test_models_share_the_immutable_records(self):
        a, b = build_airplane_model("four_eyes"), build_airplane_model("four_eyes")
        assert a == b
        assert a.policy_variants == b.policy_variants
        for variant, pmap in a.policy_variants.items():
            for loc, policies in pmap.items():
                assert policies is b.policy_variants[variant][loc]
        assert a.named_predicates.keys() == b.named_predicates.keys()
        for name, pred in a.named_predicates.items():
            assert pred is b.named_predicates[name]
        assert a.insiders == b.insiders and a.insiders[0] is b.insiders[0]

    def test_models_do_not_share_their_mutable_tables(self):
        a = build_airplane_model()
        with pytest.raises(AttributeError):  # a model's tables are read-only views
            a.policy_variants["baseline"].clear()
        with pytest.raises(AttributeError):
            a.named_predicates.clear()
        a.initial.placements.clear()
        b = build_airplane_model()
        assert b.policy_map and b.named_predicates and b.initial.placement(cockpit)
        assert b == build_airplane_model()

    def test_a_model_cannot_drift_from_its_compiled_tables(self):
        m = build_airplane_model("four_eyes")
        assert len(reachable(m).states) == 21
        with pytest.raises(TypeError):
            m.policy_variants["four_eyes"] = m.policy_variants["baseline"]
        tables = (m.policy_variants, m.value_alphabet, m.identity_sets, m.named_predicates)
        for table in (*tables, m.policy_map):
            with pytest.raises(TypeError):
                table[next(iter(table))] = None
        assert len(reachable(m).states) == 21 and len(reachable(m._clone()).states) == 21
        assert len(reachable(m.with_variant("baseline")).states) == 243

    @pytest.mark.parametrize("name", sorted(NAMED_STATES))
    def test_named_state_is_a_fresh_snapshot(self, name):
        g, expected = named_state(name), named_state(name)
        assert g == expected and g is not expected
        for table in (g.placements, g.credentials, g.roles, g.loc_value):
            table.clear()
        assert named_state(name) == expected
        assert named_state(name).placements

    @pytest.mark.parametrize("variant", ["baseline", "four_eyes"])
    def test_scenario_export_matches_the_document(self, variant):
        golden = (Path(__file__).parent / "data" / "airplane.model").read_text(encoding="utf-8")
        golden = golden.replace("default_policies baseline", f"default_policies {variant}")
        out = io.StringIO()
        with redirect_stdout(out):
            assert run_command(["scenario", "export", variant]) == 0
        assert out.getvalue() == golden
        assert serialize_model(build_airplane_model(variant)) == golden


# Python-level calls (cProfile's count, Python 3.11) to build the airplane,
# add one passenger and write the model document: 1 661 when every build
# made its own policy sets and each atom check took five getattr calls and
# three sets, 791 since; the bound is 15% above that.
CALLS_BOUND = 910


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="call counts differ between versions")
def test_building_and_writing_the_one_passenger_airplane_call_count():
    def setup():
        return serialize_model(with_passengers(build_airplane_model("baseline"), 1))

    setup()
    profile = cProfile.Profile()
    profile.runcall(setup)
    calls = pstats.Stats(profile).total_calls
    assert calls <= CALLS_BOUND, f"{calls} calls"
