import dataclasses
import itertools

import pytest
from hypothesis import given, strategies as st

from insiderctl.model import (
    ActorPsyState,
    AllAtAuthorized,
    And,
    AtomicPolicy,
    CountAtLeast,
    FoeControl,
    HasCred,
    HasRole,
    InfraGraph,
    InsiderDecl,
    IsIn,
    Location,
    Model,
    ModelError,
    Not,
    Or,
    PAt,
    PBool,
    PEnables,
    PInSet,
    Pred,
    RequesterAt,
    StatePredicate,
    TrueCond,
    build_resolver,
    enables,
    encode,
    subst_pred,
    tables,
    tipping_point,
    vector_condition,
)
from insiderctl.ctl import check, reachable
from insiderctl.formula import parse_formula
from insiderctl.modelfile import parse_model, serialize_model
from insiderctl.record import FrozenInstanceError
from insiderctl.airplane import (
    aid_graph,
    build_airplane_model,
    cabin,
    cockpit,
    cockpit_foe_control,
    door,
    ex_graph,
)

from children import run_python
from genmodels import random_model

EVE_STATE = ActorPsyState("depressed", frozenset({"revenge", "peer_recognition"}))


def condition_holds(cond, graph, rep, model):
    """``cond`` for the class of ``rep`` on ``graph``, compiled."""
    return vector_condition(cond, tables(model))(encode(model, graph), rep)


class TestTippingPoint:
    def test_depressed_with_motives(self):
        assert tipping_point(EVE_STATE) is True

    def test_happy_no_motives(self):
        assert tipping_point(ActorPsyState("happy", frozenset())) is False

    def test_happy_with_motives(self):
        # the happy disjunct fails regardless of motivations
        assert tipping_point(ActorPsyState("happy", frozenset({"financial"}))) is False

    def test_rejects_unknown_values(self):
        with pytest.raises(ModelError):
            ActorPsyState("bored", frozenset())
        with pytest.raises(ModelError):
            ActorPsyState("angry", frozenset({"greed"}))


class TestResolver:
    IDS = frozenset({"Alice", "Bob", "Charly", "Eve"})

    def test_active_insider_merges(self):
        r = build_resolver([InsiderDecl("Eve", frozenset({"Charly"}), EVE_STATE)], self.IDS)
        assert r.actor_of("Eve") == r.actor_of("Charly")
        assert r.actor_of("Bob") != r.actor_of("Alice")
        assert r.classes == (frozenset({"Eve", "Charly"}),)

    def test_inactive_insider_stays_singleton(self):
        calm = ActorPsyState("happy", frozenset({"revenge"}))
        r = build_resolver([InsiderDecl("Eve", frozenset({"Charly"}), calm)], self.IDS)
        assert r.actor_of("Eve") != r.actor_of("Charly")

    def test_no_insiders_injective(self):
        r = build_resolver([], self.IDS)
        classes = {r.actor_of(i) for i in self.IDS}
        assert len(classes) == len(self.IDS)

    def test_overlapping_declarations_merge_transitively(self):
        decls = [
            InsiderDecl("Eve", frozenset({"Charly"}), EVE_STATE),
            InsiderDecl("Charly", frozenset({"Bob"}), EVE_STATE),
        ]
        r = build_resolver(decls, self.IDS)
        assert r.actor_of("Eve") == r.actor_of("Bob") == r.actor_of("Charly")
        assert r.actor_of("Alice") != r.actor_of("Eve")

    def test_replace_rebuilds_an_equal_resolver(self):
        r = build_airplane_model("baseline").resolver
        copy = dataclasses.replace(r)
        assert copy == r and copy.classes == r.classes
        assert copy.actor_of("Eve") == r.actor_of("Eve") == "Charly"
        assert copy.classes == (frozenset({"Charly", "Eve"}),)

    def test_unknown_alter_ego_rejected(self):
        with pytest.raises(ModelError):
            build_resolver([InsiderDecl("Eve", frozenset({"Mallory"}), EVE_STATE)], self.IDS)

    def test_self_alter_ego_rejected(self):
        with pytest.raises(ModelError):
            InsiderDecl("Eve", frozenset({"Eve"}), EVE_STATE)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["A", "B", "C", "D", "E"]),
                st.sets(st.sampled_from(["A", "B", "C", "D", "E"]), max_size=3),
                st.booleans(),
            ),
            max_size=4,
        )
    )
    def test_partition_properties(self, raw):
        ids = frozenset("ABCDE")
        decls = []
        for who, egos, active in raw:
            egos = frozenset(egos) - {who}
            state = EVE_STATE if active else ActorPsyState("happy", frozenset())
            decls.append(InsiderDecl(who, egos, state))
        r = build_resolver(decls, ids)
        # class-consistency: same class iff same representative
        for x, y in itertools.product(ids, ids):
            same = r.actor_of(x) == r.actor_of(y)
            assert same == (x in next((c for c in r.classes if y in c), {y}))
        # idempotence via representatives
        for x in ids:
            rep = r.actor_of(x)
            assert r.actor_of(rep) == r.actor_of(x)


class TestInfraGraph:
    def test_placements_are_sorted_and_duplicate_free(self):
        g = ex_graph()
        assert g.placement(cockpit) == ("Bob", "Charly")
        assert g.placement(door) == ()
        assert g.actors() == ("Alice", "Bob", "Charly")

    def test_duplicate_placement_rejected(self):
        with pytest.raises(ModelError):
            InfraGraph(frozenset(), {cockpit: ("Bob", "Bob")}, {}, {}, {})

    def test_two_location_placement_rejected(self):
        with pytest.raises(ModelError):
            InfraGraph(frozenset(), {cockpit: ("Bob",), cabin: ("Bob",)}, {}, {}, {})

    def test_canonical_equality(self):
        a = InfraGraph(frozenset(), {cabin: ("Bob", "Alice")}, {"Bob": {"PIN"}}, {}, {door: "norm"})
        b = InfraGraph(frozenset(), {cabin: ("Alice", "Bob")}, {"Bob": ["PIN"]}, {}, {door: "norm"})
        assert a == b


class TestEvalCondition:
    def test_isin_door_norm_on_initial(self, baseline_model):
        m = baseline_model
        assert condition_holds(IsIn(door, "norm"), ex_graph(), m.resolver.actor_of("Bob"), m)

    def test_hascred_pin_for_alice(self, baseline_model):
        m = baseline_model
        assert condition_holds(HasCred("PIN"), ex_graph(), m.resolver.actor_of("Alice"), m)

    def test_count_at_least_three_on_initial(self, baseline_model):
        # cockpit holds exactly {Bob, Charly}, so a 3-bound fails
        m = baseline_model
        assert len(ex_graph().placement(cockpit)) == 2
        assert not condition_holds(
            CountAtLeast(cockpit, 3), ex_graph(), m.resolver.actor_of("Bob"), m
        )

    def test_insider_inherits_credentials(self, baseline_model):
        # Eve holds nothing herself; the merged class holds Charly's PIN
        m = baseline_model
        assert "Eve" not in ex_graph().credentials
        assert condition_holds(HasCred("PIN"), ex_graph(), m.resolver.actor_of("Eve"), m)

    def test_deterministic(self, baseline_model):
        m = baseline_model
        cond = IsIn(door, "norm")
        results = {
            condition_holds(cond, ex_graph(), m.resolver.actor_of("Bob"), m)
            for _ in range(10)
        }
        assert results == {True}

    @pytest.mark.parametrize("tipped", [True, False])
    @pytest.mark.parametrize("atom", [HasCred("PIN"), HasRole("pilot")], ids=repr)
    def test_insider_inherits_a_token_only_the_alter_ego_holds(self, atom, tipped):
        """Eve holds nothing; once tipped, her class holds Charly's token."""
        a = Location(0, "a")
        state = EVE_STATE if tipped else ActorPsyState("happy", frozenset())
        charly = {"Charly": {"PIN"}}, {"Charly": {"pilot"}}
        initial = InfraGraph(frozenset(), {a: ("Bob", "Charly", "Eve")}, *charly, {})
        m = Model(
            locations=(a,), edges=frozenset(), identities=frozenset({"Bob", "Charly", "Eve"}),
            initial=initial, policy_variants={"baseline": {a: {AtomicPolicy(atom, {"put"})}}},
            insiders=(InsiderDecl("Eve", {"Charly"}, state),),
        )
        other = HasRole("PIN") if isinstance(atom, HasCred) else HasCred("pilot")
        for who, holds in [("Eve", tipped), ("Charly", True), ("Bob", False)]:
            rep = m.resolver.actor_of(who)
            assert condition_holds(atom, initial, rep, m) is holds, who
            assert enables(m, initial, a, rep, "put") is holds, who
            assert condition_holds(other, initial, rep, m) is False, who


class TestSubstPred:
    def test_replaces_the_parameter_in_every_identity_slot(self):
        def body(who):
            return Or(
                Not(PEnables(cockpit, who, "put")),
                And(PAt(who, cabin), Not(Or(PInSet(who, "crew"), IsIn(door, "norm")))),
            )

        assert subst_pred(body("x"), "x", "Eve") == body("Eve")

    @pytest.mark.parametrize(
        "atom",
        [PEnables(cockpit, "Bob", "put"), PAt("Bob", cabin), PInSet("Bob", "crew"),
         IsIn(door, "x"), CountAtLeast(cockpit, 2), PBool(False)],
        ids=repr,
    )
    def test_atoms_without_the_parameter_come_back_equal(self, atom):
        for body in [atom, Not(atom), And(atom, Not(atom)), Or(Not(atom), And(atom, atom))]:
            assert subst_pred(body, "x", "Eve") == body


class TestEnables:
    def test_insider_can_put_at_cockpit(self, baseline_model):
        m = baseline_model
        assert enables(m, ex_graph(), cockpit, m.resolver.actor_of("Eve"), "put")

    def test_locked_door_blocks_move(self, baseline_model):
        m = baseline_model
        assert not enables(m, aid_graph(), cockpit, m.resolver.actor_of("Bob"), "move")

    def test_empty_policy_location_disables_everything(self):
        # a model whose only location has no policies enables nothing
        model = random_model(0)._clone(policy_variants={"baseline": {}})
        g = model.initial
        for loc in model.locations:
            for ident in sorted(model.identities):
                for action in ("get", "move", "eval", "put"):
                    assert not enables(model, g, loc, model.resolver.actor_of(ident), action)

    def test_cabin_grants_only_move(self, baseline_model):
        m = baseline_model
        g = ex_graph()
        assert enables(m, g, cabin, m.resolver.actor_of("Bob"), "move")
        assert not enables(m, g, cabin, m.resolver.actor_of("Bob"), "put")
        assert not enables(m, g, cabin, m.resolver.actor_of("Bob"), "get")

    def test_monotone_in_policy_set(self):
        # adding an atomic policy never disables an enabled triple
        extra = AtomicPolicy(TrueCond(), frozenset({"move", "put"}))
        for seed in range(30):
            model = random_model(seed)
            if model.assumptions:
                continue
            grown = {
                loc: pols | {extra} for loc, pols in model.policy_map.items()
            }
            for loc in model.locations:
                grown.setdefault(loc, frozenset({extra}))
            bigger = model._clone(policy_variants={"baseline": grown})
            for loc in model.locations:
                for ident in sorted(model.identities):
                    actor = model.resolver.actor_of(ident)
                    for action in ("get", "move", "put", "eval"):
                        if enables(model, model.initial, loc, actor, action):
                            assert enables(bigger, model.initial, loc, actor, action)

    def test_foe_control_only_affects_the_foe_class(self, four_eyes_model):
        m = four_eyes_model
        assumed = m.with_assumptions([FoeControl(cockpit, "put", "Eve")])
        g = ex_graph()
        foe_class = m.resolver.actor_of("Eve")
        for ident in sorted(m.identities):
            actor = m.resolver.actor_of(ident)
            if actor == foe_class:
                continue
            for loc in m.locations:
                for action in ("get", "move", "put", "eval"):
                    assert enables(m, g, loc, actor, action) == enables(
                        assumed, g, loc, actor, action
                    )

    def test_foe_control_disables_foe_when_outsider_present(self, four_eyes_model):
        m = four_eyes_model
        assumed = m.with_assumptions([FoeControl(cockpit, "put", "Eve")])
        g = ex_graph()  # Bob is in the cockpit, outside Eve's class
        assert enables(m, g, cockpit, m.resolver.actor_of("Eve"), "put")
        assert not enables(assumed, g, cockpit, m.resolver.actor_of("Eve"), "put")
        # Charly is actor-equal to Eve, so the override hits him too
        assert not enables(assumed, g, cockpit, m.resolver.actor_of("Charly"), "put")


class TestModelValidation:
    def test_needs_a_location(self):
        with pytest.raises(ModelError):
            build_airplane_model("baseline")._clone(locations=())

    def test_clone_passes_every_constructor_argument(self):
        m = build_airplane_model("four_eyes").with_assumptions([cockpit_foe_control()])
        fields = dataclasses.fields(m)
        # Each argument differs from its default, so a dropped one shows; a
        # mapping that defaults to None becomes an empty dict.
        for f in fields:
            default = {} if f.default is None else f.default
            assert getattr(m, f.name) != default, f.name
        clone = m._clone()
        assert [getattr(clone, f.name) for f in fields] == [getattr(m, f.name) for f in fields]
        assert m._clone(variant="baseline").variant == "baseline"

    def test_unknown_variant(self):
        with pytest.raises(ModelError):
            build_airplane_model("nope")

    def test_location_tokens(self):
        with pytest.raises(ModelError):
            Location(0, "two words")
        with pytest.raises(ModelError):
            Location(-1, "cabin")

    def test_initial_snapshot_has_the_model_edges(self):
        m = build_airplane_model("baseline")
        g = m.initial
        edges = frozenset(e for e in g.edges if cockpit not in e)
        start = InfraGraph(edges, g.placements, g.credentials, g.roles, g.loc_value)
        with pytest.raises(ModelError, match="initial snapshot's edges differ"):
            m._clone(initial=start)
        with pytest.raises(ModelError, match="initial snapshot's edges differ"):
            m._clone(edges=edges)
        assert m._clone(edges=list(g.edges)).edges == g.edges

    def test_all_at_in_names_only_model_identities(self):
        m = build_airplane_model("baseline")
        cond = AllAtAuthorized(cockpit, {"Alice", "Zed"})
        pmap = {**m.policy_map, door: m.policies_at(door) | {AtomicPolicy(cond, {"put"})}}
        with pytest.raises(ModelError, match="policy condition references unknown identity 'Zed'"):
            m._clone(policy_variants={**m.policy_variants, "baseline": pmap})

    def test_only_formulas_name_predicates(self):
        """A ``Pred`` in a policy would be compiled before the judgments it
        could name exist, and one in a predicate body could name itself."""
        m = build_airplane_model("baseline")
        pol = AtomicPolicy(Pred("eve_ok"), {"put"})
        pmap = {**m.policy_map, door: m.policies_at(door) | {pol}}
        with pytest.raises(ModelError, match="policy condition uses predicate 'eve_ok'"):
            m._clone(policy_variants={**m.policy_variants, "baseline": pmap})
        loop = StatePredicate("loop", Not(Pred("loop")))
        with pytest.raises(ModelError, match="predicate 'loop' uses predicate 'loop'"):
            m._clone(named_predicates={**m.named_predicates, "loop": loop})

    @pytest.mark.parametrize(
        "atom",
        [PEnables(cockpit, "Eve", "put"), PAt("Eve", cockpit), PInSet("Eve", "crew")],
        ids=lambda atom: type(atom).__name__,
    )
    def test_a_condition_uses_only_condition_atoms(self, atom):
        """A predicate's atom in a policy condition would crash exploration
        and serialise to a document that does not parse."""
        m = build_airplane_model("baseline")
        pol = AtomicPolicy(And(PBool(True), Not(atom)), {"move"})
        pmap = {**m.policy_map, cockpit: m.policies_at(cockpit) | {pol}}
        message = f"policy condition uses {type(atom).__name__}, which is not a PolicyCondition"
        with pytest.raises(ModelError, match=message):
            m._clone(policy_variants={**m.policy_variants, "baseline": pmap})

    @pytest.mark.parametrize(
        "atom",
        [RequesterAt(cabin), HasCred("PIN"), HasRole("pilot"), AllAtAuthorized(cockpit, {"Eve"})],
        ids=lambda atom: type(atom).__name__,
    )
    def test_a_predicate_uses_only_predicate_atoms(self, atom):
        m = build_airplane_model("baseline")
        pred = StatePredicate("odd", Or(PBool(False), atom))
        with pytest.raises(ModelError, match=f"predicate 'odd' uses {type(atom).__name__}, "):
            m._clone(named_predicates={**m.named_predicates, "odd": pred})

    def test_a_predicate_is_filed_under_its_name(self):
        """The document files a predicate under its name, so a model that
        does not would read back as another."""
        m = build_airplane_model("baseline")
        with pytest.raises(ModelError, match="predicate 'eve_ok' is filed under 'ok'"):
            m._clone(named_predicates={**m.named_predicates, "ok": m.named_predicates["eve_ok"]})

    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda: HasCred("x(y"), "credential"),
            (lambda: HasRole("x y"), "role"),
            (lambda: IsIn(door, "x,y"), "value"),
            (lambda: PInSet("Eve", ""), "set name"),
        ],
    )
    def test_atoms_hold_words(self, build, what):
        """The atoms' own tokens; ``test_model_checks`` covers the rest."""
        with pytest.raises(ModelError, match=f"^{what} must be a word"):
            build()

    def test_a_false_condition_round_trips(self):
        m = build_airplane_model("baseline")
        pmap = {**m.policy_map, door: m.policies_at(door) | {AtomicPolicy(PBool(False), {"eval"})}}
        m = m._clone(policy_variants={**m.policy_variants, "baseline": pmap})
        assert parse_model(serialize_model(m)) == m

    @pytest.mark.parametrize("kind", ["credentials", "roles"])
    def test_initial_snapshot_names_only_model_identities(self, kind):
        m = build_airplane_model("baseline")
        g = m.initial
        given = {"credentials": g.credentials, "roles": g.roles}
        given[kind] = {**given[kind], "Zed": {"PIN"}}
        start = InfraGraph(g.edges, g.placements, given["credentials"], given["roles"], g.loc_value)
        with pytest.raises(ModelError, match="snapshot names 'Zed', which the model lacks"):
            m._clone(initial=start)


class TestFrozenModel:
    """A model and its Kripke structure are fixed values: a field cannot be
    reassigned or deleted after their tables are built, so a variant comes
    only from ``with_variant`` or ``with_assumptions``."""

    def test_fields_refuse_assignment_after_exploration(self):
        m = build_airplane_model("four_eyes")
        k = reachable(m)
        for obj, name, value in [
            (m, "assumptions", (cockpit_foe_control(),)),
            (m, "variant", "baseline"),
            (m, "variant", "nonexistent"),
            (k, "states", []),
        ]:
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, value)
        with pytest.raises(FrozenInstanceError, match="cannot delete field 'variant'"):
            del m.variant
        assert m.variant == "four_eyes" and m.assumptions == () and len(k.states) == 21

    def test_a_parsed_model_refuses_assignment(self):
        m = parse_model(serialize_model(build_airplane_model("baseline")))
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'variant'"):
            m.variant = "four_eyes"

    def test_variants_come_from_new_models(self):
        four_eyes = build_airplane_model("four_eyes")
        eve_ok = parse_formula("AG eve_ok")
        assert not check(reachable(four_eyes), eve_ok).holds
        assumed = four_eyes.with_assumptions([cockpit_foe_control()])
        assert check(reachable(assumed), eve_ok).holds
        baseline = build_airplane_model("baseline")
        assert len(reachable(baseline).states) == 243
        assert len(reachable(baseline.with_variant("four_eyes")).states) == 21


def test_encode_names_the_same_lacking_location_under_every_hash_seed(monkeypatch):
    """Of two locations a snapshot names and the model lacks, ``encode``
    names the one with the least id, however the hash seed orders sets."""
    script = (
        "from insiderctl import airplane\n"
        "from insiderctl.model import InfraGraph, Location, ModelError, encode\n"
        "m, g = airplane.build_airplane_model('baseline'), airplane.ex_graph()\n"
        "values = {**g.loc_value, Location(9, 'attic'): 'x', Location(8, 'hold'): 'y'}\n"
        "try:\n"
        "    encode(m, InfraGraph(g.edges, g.placements, g.credentials, g.roles, values))\n"
        "except ModelError as exc:\n"
        "    print(exc)\n"
    )
    for seed in range(6):
        monkeypatch.setenv("PYTHONHASHSEED", str(seed))
        result = run_python("-c", script)
        assert result.stdout == (
            "snapshot names Location(id=8, name='hold'), which the model lacks\n"
        ), (seed, result.stderr)
