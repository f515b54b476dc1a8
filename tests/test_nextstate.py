"""The generated next-state function against the closures it stands in for.

``nextstate.build`` is called directly here, so no threshold is involved: on
every reachable state of the seeded random models (deadlocking ones among
them) and of the airplane variants, with and without the cockpit foe-control
assumption and with extra passengers, it must return the list the closures
return, with the same label objects, equal vectors and the same order.  The
other tests pin what the threshold switches, what enters the source, and the
exit-code contract for conditions nested deeper than Python compiles.
"""

import re

import pytest

from children import run_python
from genmodels import random_model, with_passengers
from insiderctl import airplane, nextstate, transition
from insiderctl.ctl import check, dot_export, reachable
from insiderctl.formula import parse_formula
from insiderctl.model import (
    ActorPsyState,
    And,
    AtomicPolicy,
    FoeControl,
    HasCred,
    HasRole,
    InfraGraph,
    InsiderDecl,
    IsIn,
    Location,
    Model,
    Or,
    PAt,
    PBool,
    PEnables,
    RequesterAt,
    StatePredicate,
    encode,
    tables,
)
from insiderctl.modelfile import parse_model, serialize_model

AIRPLANES = {
    f"{variant}{'+foe' if foe else ''}+{pax}": (variant, foe, pax)
    for variant in ("baseline", "four_eyes")
    for foe in (False, True)
    for pax in (0, 1, 2)
}


def airplane_model(variant: str, foe: bool, pax: int) -> Model:
    model = airplane.build_airplane_model(variant)
    if foe:
        model = model.with_assumptions([airplane.cockpit_foe_control()])
    return with_passengers(model, pax)


def closure_states(model: Model) -> list:
    """The reachable state vectors, found with the closures alone."""
    t = tables(model)
    states = [encode(model, model.initial)]
    seen = set(states)
    for v in states:
        for _, succ in transition._successors(t, v):
            if succ not in seen:
                seen.add(succ)
                states.append(succ)
    return states


def assert_same_successors(model: Model) -> list:
    """Compare the two paths on every reachable state, self-loops included;
    return the states."""
    t = tables(model)
    step = nextstate.build(t)
    assert step is not None
    states = closure_states(model)
    for v in states:
        got, want = step(v), transition._successors(t, v)
        assert len(got) == len(want), v
        for (label, succ), (label_want, succ_want) in zip(got, want):
            assert label is label_want and succ == succ_want, (v, label, label_want)
            # a no-op instance gives v itself, whose index exploration needs no lookup for
            assert (succ is v) == (succ_want is v) == (succ == v), (v, label)
    return states


def test_random_models_seeds_0_to_199():
    deadlocking = 0
    for seed in range(200):
        model = random_model(seed)
        states = assert_same_successors(model)
        t = tables(model)
        deadlocking += any(not transition._successors(t, v) for v in states)
    assert deadlocking > 0


@pytest.mark.parametrize("name", AIRPLANES)
def test_airplane_variants(name):
    states = assert_same_successors(airplane_model(*AIRPLANES[name]))
    assert len(states) == (21 if name.startswith("four_eyes") else 243 * 2 ** AIRPLANES[name][2])


def test_successors_switches_at_the_threshold():
    small, large = airplane_model("four_eyes", False, 2), airplane_model("baseline", False, 0)
    assert len(reachable(small).states) < transition.THRESHOLD < len(reachable(large).states)
    assert tables(small).step is None and tables(small).expanded == 21
    assert tables(large).step is not None and tables(large).expanded == transition.THRESHOLD


def test_a_model_parsed_again_reuses_the_compiled_code():
    doc = serialize_model(airplane_model("baseline", True, 1))
    first, again = (nextstate.build(tables(parse_model(doc))) for _ in range(2))
    assert first is not again and first.__code__ is again.__code__
    for seed in range(2 * nextstate._KEEP):
        nextstate.build(tables(random_model(seed)))
    assert len(nextstate._CODE) <= nextstate._KEEP


# ---------------------------------------------------------------------------
# Hostile names

# Every token of a model is a word (see ``model.check_name``), so these are
# Python keywords, built-ins and constants.
HOSTILE = {
    "locations": ["lambda", "__builtins__", "yield"],
    "identities": ["__import__", "exec", "breakpoint", "globals", "class", "_0"],
    "credential": "False",
    "role": "nonlocal",
    "values": ["None", "raise", "__class__", "print"],
}


def hostile_model() -> Model:
    cabin, door, cockpit = (Location(i, name) for i, name in enumerate(HOSTILE["locations"]))
    ids = HOSTILE["identities"]
    cred, role, values = HOSTILE["credential"], HOSTILE["role"], HOSTILE["values"]
    enter = And(And(RequesterAt(cabin), HasCred(cred)), IsIn(door, values[1]))
    policies = {
        cabin: {AtomicPolicy(PBool(True), {"move"})},
        door: {AtomicPolicy(PBool(True), {"move"}), AtomicPolicy(RequesterAt(cockpit), {"put"})},
        cockpit: {
            AtomicPolicy(Or(enter, HasRole(role)), {"move"}),
            AtomicPolicy(RequesterAt(cockpit), {"put", "get"}),
        },
    }
    edges = {(door, cabin), (cockpit, door)}
    initial = InfraGraph(
        edges,
        {cabin: ids[:2], cockpit: ids[2:4]},
        {ids[2]: {cred}, ids[3]: {cred}},
        {ids[4]: {role}},
        {door: values[1], cockpit: values[0]},
    )
    predicates = {
        "calm": StatePredicate("calm", PAt(ids[1], cabin)),
        "safe": StatePredicate("safe", PEnables(cockpit, ids[0], "put")),
    }
    return Model(
        locations=(cabin, door, cockpit),
        edges=edges,
        identities=frozenset(ids),
        initial=initial,
        policy_variants={"baseline": policies},
        value_alphabet={door: set(values[:3]), cockpit: {values[0], values[3]}},
        insiders=(InsiderDecl(ids[1], {ids[4]}, ActorPsyState("angry", {"revenge"})),),
        named_predicates=predicates,
        assumptions=(FoeControl(cockpit, "put", ids[1]),),
    )


def test_hostile_names_never_enter_the_source(monkeypatch):
    text, constants, _ = nextstate.source(tables(hostile_model()))
    names = [*HOSTILE["locations"], *HOSTILE["identities"], *HOSTILE["values"]]
    names += [HOSTILE["credential"], HOSTILE["role"]]
    for name in names:
        assert name not in text, name
    assert {HOSTILE["credential"], HOSTILE["role"], *HOSTILE["values"]} <= set(constants)
    assert re.fullmatch(r"[\x20-\x7e\n]*", text)

    formulas = [parse_formula(f) for f in ("AG calm", "EF !calm", "AG (EF safe)", "EG !safe")]
    generated = reachable(hostile_model())
    assert len(generated.states) > transition.THRESHOLD
    assert tables(generated.model).step is not None
    monkeypatch.setattr(transition, "THRESHOLD", 10**9)
    closures = reachable(hostile_model())
    assert tables(closures.model).step is None
    assert [check(generated, f).holds for f in formulas] == [check(closures, f).holds for f in formulas]
    assert dot_export(generated) == dot_export(closures)


# ---------------------------------------------------------------------------
# Conditions nested deeper than Python compiles


def alternating(depth: int):
    """``a & (a | (a & ...))`` with ``depth`` connectives, as a tree."""
    model = airplane.build_airplane_model("baseline")
    atom = RequesterAt(model.locations[2])
    e = atom
    for i in range(depth):
        e = (And if i % 2 else Or)(atom, e)
    return model, e


def test_a_condition_deeper_than_the_compiler_keeps_the_closures():
    model, deep = alternating(300)
    door = model.locations[1]
    policies = {**model.policy_map, door: model.policy_map[door] | {AtomicPolicy(deep, {"put"})}}
    deep_model = model._clone(policy_variants={"baseline": policies})
    assert nextstate.build(tables(deep_model)) is None
    k, plain = reachable(deep_model), reachable(model)
    assert tables(deep_model).step is None and tables(deep_model).expanded > transition.THRESHOLD
    assert k.states == plain.states and dot_export(k) == dot_export(plain)


def test_a_long_chain_compiles_flat():
    model, _ = alternating(0)
    cockpit = model.locations[2]
    chain = RequesterAt(cockpit)
    for _ in range(199):
        chain = And(chain, RequesterAt(cockpit))
    door = model.locations[1]
    policies = {**model.policy_map, door: model.policy_map[door] | {AtomicPolicy(chain, {"put"})}}
    text, _, _ = nextstate.source(tables(model._clone(policy_variants={"baseline": policies})))
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    assert deepest < 10
    assert_same_successors(model._clone(policy_variants={"baseline": policies}))


SHAPES = {
    "and_chain": lambda n: " & ".join(["requester_at(cockpit)"] * n),
    "not_chain": lambda n: "!" * n + "requester_at(cockpit)",
    "parens": lambda n: "(" * n + "requester_at(cockpit)" + ")" * n,
    "alternating": lambda n: "".join(
        f"requester_at(cockpit) {'&|'[i % 2]} (" for i in range(n)
    ) + "requester_at(cockpit)" + ")" * n,
}


def document(condition: str) -> str:
    text = serialize_model(airplane.build_airplane_model("baseline"))
    line = f"  at door allow put if {condition}\n"
    return text.replace("\npolicies four_eyes", f"{line}\npolicies four_eyes", 1)


def deepest(shape) -> int:
    """The deepest condition of ``shape`` that ``parse_model`` accepts here."""
    low, high = 1, 4096
    while low < high:
        mid = (low + high + 1) // 2
        try:
            parse_model(document(shape(mid)))
            low = mid
        except RecursionError:
            high = mid - 1
    return low


@pytest.mark.parametrize("name", SHAPES)
def test_the_deepest_condition_keeps_the_exit_code_contract(tmp_path, name):
    shape = SHAPES[name]
    depths = {200, 1000} if name == "and_chain" else {300, deepest(shape)}
    checked = []
    for depth in sorted(depths):
        path = tmp_path / f"{name}{depth}.model"
        path.write_text(document(shape(depth)))
        result = run_python("-m", "insiderctl", "check", str(path), "AG eve_ok")
        assert "Traceback" not in result.stderr, (depth, result.stderr[-500:])
        if result.returncode == 2:
            assert result.stderr.startswith("error: "), (depth, result.stderr)
        else:
            assert result.returncode in (0, 1), (depth, result.returncode)
            checked.append(depth)
            states = int(re.search(r"states explored: (\d+)", result.stdout).group(1))
            assert states > transition.THRESHOLD
            assert re.search(r"check AG eve_ok: (holds|fails)", result.stdout), result.stdout
    assert 200 in checked or name != "and_chain"  # a chain of 200 atoms is checked
