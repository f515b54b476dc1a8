"""The benchmark's inputs: model documents and CTL formulas.

Every input is a pure function of its parameters and, for the random models,
of the workload seed, so one seed always gives the same documents.  Models
are built through the public ``insiderctl.model`` constructors and turned
into documents with ``modelfile.serialize_model``; the workloads then pay for
parsing them back, as a user of the command line does.
"""

from __future__ import annotations

import random

from insiderctl import airplane
from insiderctl.model import (
    MOTIVATIONS,
    PSY_STATES,
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
    PAt,
    PCountAtLeast,
    PEnables,
    PInSet,
    PIsIn,
    RequesterAt,
    StatePredicate,
    TrueCond,
)

# ---------------------------------------------------------------------------
# The airplane with extra passengers


def scaled_airplane(passengers: int, predicates: dict | None = None) -> Model:
    """The baseline airplane with ``passengers`` extra identities in the
    cabin.  They hold no credential, so each can only shuttle between cabin
    and door, and each doubles the state count: 243 * 2**passengers."""
    base = airplane.build_airplane_model("baseline")
    names = tuple(f"Pax{i}" for i in range(1, passengers + 1))
    g = base.initial
    placements = dict(g.placements)
    placements[airplane.cabin] = placements.get(airplane.cabin, ()) + names
    return Model(
        locations=base.locations,
        edges=base.edges,
        identities=base.identities | set(names),
        initial=InfraGraph(g.edges, placements, g.credentials, g.roles, g.loc_value),
        policy_variants=base.policy_variants,
        variant=base.variant,
        value_alphabet=base.value_alphabet,
        insiders=base.insiders,
        identity_sets=base.identity_sets,
        named_predicates={**base.named_predicates, **(predicates or {})},
        assumptions=base.assumptions,
    )


def battery_predicates() -> dict:
    """Named predicates the formula battery adds to the scaled airplane; one
    of each predicate atom kind except ``inset``, which ``eve_ok`` has."""
    cabin, door, cockpit = airplane.cabin, airplane.door, airplane.cockpit
    preds = {
        "door_locked": PIsIn(door, "locked"),
        "door_norm": PIsIn(door, "norm"),
        "on_ground": PIsIn(cockpit, "ground"),
        "bob_in_cockpit": PAt("Bob", cockpit),
        "pax_at_door": PAt("Pax1", door),
        "crew_of_two": PCountAtLeast(cockpit, 2),
        "alice_can_enter": PEnables(cockpit, "Alice", "move"),
        "someone_in_cabin": PCountAtLeast(cabin, 1),
    }
    return {name: StatePredicate(name, body) for name, body in preds.items()}


# ---------------------------------------------------------------------------
# Formulas, written as nested tuples so that the naive labeller reads the
# same source as the engine's parser, not the parser's output.
#
# An atom is a predicate name; ("not", f), ("and", f, g), ("or", f, g);
# ("EX", f) ... ("AG", f); ("EU", f, g), ("AU", ..), ("ER", ..), ("AR", ..).

_UNARY_TEMPORAL = ("EX", "AX", "EF", "AF", "EG", "AG")
_BINARY_TEMPORAL = {"EU": ("E", "U"), "AU": ("A", "U"), "ER": ("E", "R"), "AR": ("A", "R")}


def formula_text(f) -> str:
    """Fully parenthesised surface syntax of a tuple formula."""
    if isinstance(f, str):
        return f
    op = f[0]
    if op == "not":
        return "!" + formula_text(f[1])
    if op in ("and", "or"):
        sym = "&" if op == "and" else "|"
        return f"({formula_text(f[1])} {sym} {formula_text(f[2])})"
    if op in _UNARY_TEMPORAL:
        return f"{op} {formula_text(f[1])}"
    path, kind = _BINARY_TEMPORAL[op]
    return f"{path}[{formula_text(f[1])} {kind} {formula_text(f[2])}]"


# The battery: all ten CTL operators, temporal nesting up to depth 3, some
# formulas that hold and some that fail, and the three dual pairs
# (AG f, EF !f), (AF f, EG !f), (A[f U g], E[!f R !g]) side by side.
BATTERY = (
    ("AG", "eve_ok"),
    ("EF", ("not", "eve_ok")),
    ("AF", "door_locked"),
    ("EG", ("not", "door_locked")),
    ("AU", "crew_of_two", "door_locked"),
    ("ER", ("not", "crew_of_two"), ("not", "door_locked")),
    ("EF", ("and", "door_locked", ("not", "bob_in_cockpit"))),
    ("EX", "on_ground"),
    ("AX", ("EF", "door_norm")),
    ("AG", ("EF", ("and", "crew_of_two", ("EX", "pax_at_door")))),
    ("EU", "door_norm", ("AX", "on_ground")),
    ("AR", ("not", "on_ground"), ("EF", "alice_can_enter")),
    ("EG", ("EF", ("AG", ("or", "eve_ok", "someone_in_cabin")))),
)

# The paper's three command-line queries: arguments after the model path,
# and the exit code each must give on the baseline document.
PAPER_QUERIES = (
    (["witness", "{model}", "EF eve_violates"], 0),
    (["check", "{model}", "AG eve_ok", "--variant", "four_eyes", "--trace"], 1),
    (
        ["check", "{model}", "AG eve_ok", "--variant", "four_eyes", "--assume",
         "foe:cockpit:put:Eve"],
        0,
    ),
)

# The per-model battery of the random models, over each model's ``goal``.
GOAL_BATTERY = (
    ("EF", "goal"),
    ("AG", "goal"),
    ("AF", "goal"),
    ("EG", ("not", "goal")),
    ("EX", "goal"),
    ("AU", "goal", ("AX", "goal")),
)

# ---------------------------------------------------------------------------
# Seeded random models

_IDENT_POOL = ("Ann", "Ben", "Cal", "Dee")
_CRED_POOL = ("key", "badge")
_ROLE_POOL = ("staff", "boss")

# No model may have more states than this structural bound allows.  Without
# it, a few seeds in a few hundred give models with thousands of states,
# whose exploration would outweigh the rest of the batch; with it, the naive
# oracle can size every candidate cheaply.
STATE_BOUND = 256


def state_bound(model: Model) -> int:
    """An upper bound on the reachable state count that needs no
    exploration: where each placed identity can be, which credentials it can
    come to hold, and which value each location can take."""
    g = model.initial
    placed = len(g.actors())
    grants_get = any(
        "get" in pol.actions for pols in model.policy_map.values() for pol in pols
    )
    tokens = {t for creds in g.credentials.values() for t in creds}
    bound = len(model.locations) ** placed
    if grants_get:
        bound *= 2 ** (len(tokens) * placed)
    for loc, alphabet in model.value_alphabet.items():
        bound *= len(alphabet) + (0 if g.value_of(loc) in alphabet else 1)
    return bound


def _draw_model(rng: random.Random) -> Model:
    """One model drawn like ``tests/genmodels.random_model``: every policy
    condition kind, the ``get`` rule, insiders, foe control, and models that
    deadlock."""
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

    def cond(level=0):
        if level < 2 and rng.random() < 0.3:
            kind = rng.choice(("and", "or", "not"))
            if kind == "not":
                return CondNot(cond(level + 1))
            node = CondAnd if kind == "and" else CondOr
            return node(cond(level + 1), cond(level + 1))
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
        assumptions = (
            FoeControl(rng.choice(locs), rng.choice(("move", "put")), rng.choice(idents)),
        )

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


# How many models of each size one batch holds, keyed by the bit length of
# the oracle's state count: 120 models with 1 state, 200 with 2-3, 50 with
# 4-7 and 20 with 8-15.  The cost of a batch drawn freely depends on the few
# largest models a seed happens to give: resampled from measured per-model
# times, 300 free models spread by 25% (quartile distance over median), and
# a profile of 94 models of up to 127 states still by 8.5%.  Many small models of fixed sizes hold the
# spread to about 4.5%, and make per-model work (parsing, validation, lint,
# the Kripke constructor) the larger share of an op.
BATCH_PROFILE = {1: 120, 2: 200, 3: 50, 4: 20}

# Candidates tried before a seed is declared unable to fill the profile; a
# profile above needs about 600.
MAX_CANDIDATES = 50_000


def candidate(seed: int, index: int) -> Model:
    """Candidate ``index`` of the workload seed, drawn on its own random
    stream, so a batch can be rebuilt from its indices alone."""
    return _draw_model(random.Random(f"{seed}/{index}"))


def select_batch(seed: int, profile: dict, count_states) -> list[int]:
    """Indices of the first candidates that fill ``profile``.  Candidates
    whose :func:`state_bound` exceeds :data:`STATE_BOUND` are skipped, and so
    are those too small for every size still wanted; ``count_states(model)``
    gives the state count of the rest."""
    need = dict(profile)
    chosen = []
    for index in range(MAX_CANDIDATES):
        if not any(need.values()):
            return chosen
        model = candidate(seed, index)
        bound = state_bound(model)
        if bound > STATE_BOUND or bound.bit_length() < min(b for b, n in need.items() if n):
            continue
        size = count_states(model).bit_length()
        if need.get(size, 0):
            need[size] -= 1
            chosen.append(index)
    raise RuntimeError(f"seed {seed} did not fill the batch profile in {MAX_CANDIDATES} candidates")


def batch(seed: int, indices) -> list[Model]:
    return [candidate(seed, i) for i in indices]

