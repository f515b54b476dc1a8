"""The built-in airplane cockpit-door case study.

Four identities: Bob (pilot), Charly (copilot), Alice (flight attendant) are
the legitimate airplane actors; Eve is a malicious identity declared as an
insider able to impersonate Charly.  Three locations: cabin, door, cockpit.

Two policy variants are provided:

* ``baseline`` -- anyone may move to door or cabin; entering the cockpit
  needs presence in the cabin, the PIN credential, and the door in state
  ``norm``; ``put`` at cockpit (and remotely at the door) needs presence in
  the cockpit.
* ``four_eyes`` -- the two-person rule: ``put`` at the cockpit additionally
  requires at least two occupants, all of them airplane actors; leaving the
  cockpit for the door requires three cockpit occupants; moving to the cabin
  requires presence at the door.

Six named snapshots from the study are exposed through
:func:`named_state`.  Note that ``Airplane_not_in_danger`` (lone copilot,
door locked, four-eyes policies) satisfies the per-state policy check only
vacuously -- its two-person precondition is false -- and is not reachable
from ``Airplane_not_in_danger_init``, which is the point of the two-person
invariant.
"""

from __future__ import annotations

from .model import (
    ActorPsyState,
    AllAtAuthorized,
    AtomicPolicy,
    CondAnd,
    CountAtLeast,
    HasCred,
    InfraGraph,
    InsiderDecl,
    IsIn,
    Location,
    Model,
    PEnables,
    PInSet,
    PNot,
    POr,
    RequesterAt,
    StatePredicate,
    TrueCond,
    enables,
    eval_predicate,
)
from .record import record

cabin = Location(0, "cabin")
door = Location(1, "door")
cockpit = Location(2, "cockpit")

LOCATIONS = (cabin, door, cockpit)
EDGES = frozenset({(cockpit, door), (door, cabin)})

AIRPLANE_ACTORS = frozenset({"Bob", "Charly", "Alice"})
IDENTITIES = AIRPLANE_ACTORS | {"Eve"}

_CREDS = {"Bob": {"PIN"}, "Charly": {"PIN"}, "Alice": {"PIN"}}
_ROLES = {"Bob": {"pilot"}, "Charly": {"copilot"}, "Alice": {"flightattendant"}}

VALUE_ALPHABET = {
    door: frozenset({"locked", "norm", "unlocked"}),
    cockpit: frozenset({"air", "airport", "ground"}),
}

_LOCS_NORM = {door: "norm", cockpit: "air"}
_LOCS_LOCKED = {door: "locked", cockpit: "air"}


def _graph(placements: dict, loc_value: dict) -> InfraGraph:
    return InfraGraph(EDGES, placements, _CREDS, _ROLES, loc_value)


def ex_graph() -> InfraGraph:
    """Initial snapshot: pilot and copilot in the cockpit, attendant in the
    cabin, door normal, plane in the air."""
    return _graph({cockpit: ("Bob", "Charly"), cabin: ("Alice",)}, _LOCS_NORM)


def aid_graph0() -> InfraGraph:
    """The pilot has stepped out to the door."""
    return _graph({cockpit: ("Charly",), door: ("Bob",), cabin: ("Alice",)}, _LOCS_NORM)


def agid_graph() -> InfraGraph:
    """The pilot has reached the cabin; the door is still normal."""
    return _graph({cockpit: ("Charly",), cabin: ("Bob", "Alice")}, _LOCS_NORM)


def aid_graph() -> InfraGraph:
    """The fatal configuration: lone copilot in the cockpit, door locked."""
    return _graph({cockpit: ("Charly",), cabin: ("Bob", "Alice")}, _LOCS_LOCKED)


def _cockpit_move_condition():
    return CondAnd(CondAnd(RequesterAt(cabin), HasCred("PIN")), IsIn(door, "norm"))


def _baseline_policies() -> dict:
    return {
        cockpit: frozenset(
            {
                AtomicPolicy(RequesterAt(cockpit), frozenset({"put"})),
                AtomicPolicy(_cockpit_move_condition(), frozenset({"move"})),
            }
        ),
        door: frozenset(
            {
                AtomicPolicy(TrueCond(), frozenset({"move"})),
                AtomicPolicy(RequesterAt(cockpit), frozenset({"put"})),
            }
        ),
        cabin: frozenset({AtomicPolicy(TrueCond(), frozenset({"move"}))}),
    }


def _four_eyes_policies() -> dict:
    two_person_put = CondAnd(
        CondAnd(RequesterAt(cockpit), CountAtLeast(cockpit, 2)),
        AllAtAuthorized(cockpit, AIRPLANE_ACTORS),
    )
    leave_with_three = CondAnd(RequesterAt(cockpit), CountAtLeast(cockpit, 3))
    return {
        cockpit: frozenset(
            {
                AtomicPolicy(two_person_put, frozenset({"put"})),
                AtomicPolicy(_cockpit_move_condition(), frozenset({"move"})),
            }
        ),
        door: frozenset({AtomicPolicy(leave_with_three, frozenset({"move"}))}),
        cabin: frozenset({AtomicPolicy(RequesterAt(door), frozenset({"move"}))}),
    }


def _named_predicates() -> dict:
    # global_ok(a): a is either an airplane actor or cannot put at the cockpit
    global_ok_body = POr(
        PInSet("a", "airplane_actors"), PNot(PEnables(cockpit, "a", "put"))
    )
    eve_ok_body = POr(
        PInSet("Eve", "airplane_actors"), PNot(PEnables(cockpit, "Eve", "put"))
    )
    return {
        "global_ok": StatePredicate("global_ok", global_ok_body, param="a"),
        "eve_ok": StatePredicate("eve_ok", eve_ok_body),
        "eve_violates": StatePredicate("eve_violates", PNot(eve_ok_body)),
    }


def build_airplane_model(variant: str = "baseline") -> Model:
    """The full case-study model with the given active policy variant.

    The insider declaration for Eve is always present (her tipping point is
    reached, so her actor class is merged with Charly's).  The foe-control
    assumption is *not* included; add it explicitly via
    ``model.with_assumptions(...)`` when required.
    """
    return Model(
        locations=LOCATIONS,
        edges=EDGES,
        identities=IDENTITIES,
        initial=ex_graph(),
        policy_variants={
            "baseline": _baseline_policies(),
            "four_eyes": _four_eyes_policies(),
        },
        variant=variant,
        value_alphabet=VALUE_ALPHABET,
        insiders=(
            InsiderDecl(
                "Eve",
                frozenset({"Charly"}),
                ActorPsyState("depressed", frozenset({"revenge", "peer_recognition"})),
            ),
        ),
        identity_sets={"airplane_actors": AIRPLANE_ACTORS},
        named_predicates=_named_predicates(),
    )


NAMED_STATES = {
    "Airplane_scenario": (ex_graph, "baseline"),
    "Airplane_getting_in_danger0": (aid_graph0, "baseline"),
    "Airplane_getting_in_danger": (agid_graph, "baseline"),
    "Airplane_in_danger": (aid_graph, "baseline"),
    "Airplane_not_in_danger": (aid_graph, "four_eyes"),
    "Airplane_not_in_danger_init": (ex_graph, "four_eyes"),
}


def named_state(name: str) -> InfraGraph:
    """The exact snapshot behind one of the six named study states."""
    try:
        builder, _ = NAMED_STATES[name]
    except KeyError:
        raise KeyError(
            f"unknown state name {name!r}; expected one of {sorted(NAMED_STATES)}"
        ) from None
    return builder()


def named_infrastructure(name: str) -> tuple[Model, InfraGraph]:
    """The named snapshot paired with the model at the policy variant the
    name implies."""
    graph = named_state(name)
    _, variant = NAMED_STATES[name]
    return build_airplane_model(variant), graph


def global_policy(model: Model, graph: InfraGraph, identity: str) -> bool:
    """No one outside the airplane actors may put at the cockpit; vacuously
    true for airplane actors."""
    return eval_predicate(model.named_predicates["global_ok"], model, graph, arg=identity)


def safety(model: Model, graph: InfraGraph, identity: str) -> bool:
    """Airplane actors can always move into the cockpit."""
    if identity not in model.identity_sets["airplane_actors"]:
        return True
    return enables(model, graph, cockpit, model.resolver.actor_of(identity), "move")


def security(model: Model, graph: InfraGraph, identity: str) -> bool:
    """With the door locked, nobody can move into the cockpit."""
    if graph.value_of(door) != "locked":
        return True
    return not enables(model, graph, cockpit, model.resolver.actor_of(identity), "move")


def cockpit_foe_control(foe: str = "Eve"):
    """The assumption needed to close the global security proof."""
    from .model import FoeControl

    return FoeControl(cockpit, "put", foe)


@record(frozen=True)
class RiskComparison:
    one_person: float
    two_person: float
    recommend: str


def risk_compare(p0: float, p1: float, p2: float) -> RiskComparison:
    """Compare the danger probabilities of the one- and two-person rules.

    ``p0``: a pilot is an insider; ``p1``: a terrorist exploits the door
    under the one-person rule; ``p2``: the same under the two-person rule.
    The one-person danger is the exact inclusion-exclusion value
    ``p0 + p1 - p0*p1`` (independence assumed), not its small-probability
    approximation; the two-person danger is ``p2`` (an insider who is not
    alone is assumed harmless).  Recommends the rule with the smaller value.
    """
    for name, p in (("p0", p0), ("p1", p1), ("p2", p2)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    one_person = p0 + p1 - p0 * p1
    two_person = p2
    if one_person < two_person:
        recommend = "one_person"
    elif two_person < one_person:
        recommend = "two_person"
    else:
        recommend = "tie"
    return RiskComparison(one_person, two_person, recommend)
