"""Seeded random small models for cross-checking the engine against the
naive oracles: at most 4 locations, 4 identities, and 2-token alphabets;
and the airplane with extra cabin passengers."""

import random

from insiderctl import airplane
from insiderctl.model import (
    ActorPsyState,
    AllAtAuthorized,
    AtomicPolicy,
    CondAnd,
    CondNot,
    CondOr,
    CountAtLeast,
    FoeControl,
    HasCred,
    HasRole,
    InfraGraph,
    InsiderDecl,
    IsIn,
    Location,
    Model,
    MOTIVATIONS,
    PSY_STATES,
    PAnd,
    PAt,
    PBool,
    PCountAtLeast,
    PEnables,
    PInSet,
    PIsIn,
    PNot,
    POr,
    RequesterAt,
    StatePredicate,
    TrueCond,
)

_IDENT_POOL = ("Ann", "Ben", "Cal", "Dee")
_CRED_POOL = ("key", "badge")
_ROLE_POOL = ("staff", "boss")


def random_model(seed: int) -> Model:
    rng = random.Random(seed)
    locs = [Location(i, f"loc{i}") for i in range(rng.randint(1, 4))]
    idents = list(_IDENT_POOL[: rng.randint(1, 4)])

    pairs = [(a, b) for a in locs for b in locs if a is not b]
    edges = frozenset(rng.sample(pairs, k=rng.randint(0, len(pairs)))) if pairs else frozenset()

    placements = {}
    for ident in idents:
        if rng.random() < 0.85:
            placements.setdefault(rng.choice(locs), []).append(ident)
    creds = {i: {t for t in _CRED_POOL if rng.random() < 0.4} for i in idents}
    roles = {i: {t for t in _ROLE_POOL if rng.random() < 0.3} for i in idents}

    alphabet = {}
    values = {}
    for loc in locs:
        tokens = [t for t in ("v0", "v1") if rng.random() < 0.5]
        if tokens:
            alphabet[loc] = frozenset(tokens)
            if rng.random() < 0.7:
                values[loc] = rng.choice(tokens)

    sets = {}
    if rng.random() < 0.6:
        sets["crew"] = frozenset(rng.sample(idents, k=rng.randint(0, len(idents))))

    def cond(depth=0):
        if depth < 2 and rng.random() < 0.3:
            kind = rng.choice(("and", "or", "not"))
            if kind == "not":
                return CondNot(cond(depth + 1))
            node = CondAnd if kind == "and" else CondOr
            return node(cond(depth + 1), cond(depth + 1))
        kind = rng.choice(("true", "at", "cred", "role", "isin", "count", "allat"))
        if kind == "true":
            return TrueCond()
        if kind == "at":
            return RequesterAt(rng.choice(locs))
        if kind == "cred":
            return HasCred(rng.choice(_CRED_POOL))
        if kind == "role":
            return HasRole(rng.choice(_ROLE_POOL))
        if kind == "isin":
            loc = rng.choice(locs)
            return IsIn(loc, rng.choice(sorted(alphabet.get(loc, ())) or ["v0"]))
        if kind == "count":
            return CountAtLeast(rng.choice(locs), rng.randint(1, 3))
        return AllAtAuthorized(
            rng.choice(locs), frozenset(rng.sample(idents, k=rng.randint(0, len(idents))))
        )

    policies = {}
    for loc in locs:
        pols = set()
        for _ in range(rng.randint(0, 2)):
            actions = set(rng.sample(("move", "put"), k=rng.randint(1, 2)))
            if rng.random() < 0.25:
                actions.add("get")
            pols.add(AtomicPolicy(cond(), frozenset(actions)))
        if pols:
            policies[loc] = frozenset(pols)

    insiders = ()
    if len(idents) >= 2 and rng.random() < 0.5:
        who = rng.choice(idents)
        egos = frozenset(rng.sample([i for i in idents if i != who], k=1))
        psy = rng.choice(PSY_STATES)
        motives = frozenset(rng.sample(MOTIVATIONS, k=rng.randint(0, 2)))
        insiders = (InsiderDecl(who, egos, ActorPsyState(psy, motives)),)

    assumptions = ()
    if rng.random() < 0.3:
        assumptions = (FoeControl(rng.choice(locs), rng.choice(("move", "put")), rng.choice(idents)),)

    goals = [
        PAt(rng.choice(idents), rng.choice(locs)),
        PCountAtLeast(rng.choice(locs), rng.randint(1, 2)),
        PEnables(rng.choice(locs), rng.choice(idents), rng.choice(("move", "put"))),
    ]
    if alphabet:
        loc = rng.choice(sorted(alphabet, key=lambda l: l.id))
        goals.append(PIsIn(loc, rng.choice(sorted(alphabet[loc]))))
    if sets:
        goals.append(PInSet(rng.choice(idents), "crew"))
    predicates = {"goal": StatePredicate("goal", rng.choice(goals))}

    return Model(
        locations=tuple(locs),
        edges=edges,
        identities=frozenset(idents),
        initial=InfraGraph(edges, placements, creds, roles, values),
        policy_variants={"baseline": policies},
        value_alphabet=alphabet,
        insiders=insiders,
        identity_sets=sets,
        named_predicates=predicates,
        assumptions=assumptions,
    )


def with_false_predicates(model: Model) -> Model:
    """``model`` with four more predicates built on the constant ``false``,
    around its ``goal``: ``false``, ``!false``, ``false | goal`` and
    ``goal & !false``.  A wrapper, so that :func:`random_model`'s draws,
    which the golden DOT digests pin, stay as they are."""
    goal, false = model.named_predicates["goal"].body, PBool(False)
    extra = {
        "never": false,
        "always": PNot(false),
        "false_or_goal": POr(false, goal),
        "goal_and_not_false": PAnd(goal, PNot(false)),
    }
    named = {name: StatePredicate(name, body) for name, body in extra.items()}
    return model._clone(named_predicates={**model.named_predicates, **named})


def with_passengers(model: Model, count: int) -> Model:
    """``model`` with ``count`` extra credential-less identities in the cabin."""
    names = tuple(f"Pax{i}" for i in range(1, count + 1))
    g = model.initial
    placements = {**g.placements, airplane.cabin: g.placement(airplane.cabin) + names}
    initial = InfraGraph(g.edges, placements, g.credentials, g.roles, g.loc_value)
    return model._clone(identities=model.identities | set(names), initial=initial)
