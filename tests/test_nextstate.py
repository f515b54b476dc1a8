"""The generated row writer against the closures it stands in for.

Each model is explored twice from state 0 over one label table: once with
the generated writer (``nextstate.build``) expanding every state, so no
threshold is involved, and once with the closures alone.  On the seeded
random models (deadlocking ones among them) and on the airplane variants,
with and without the cockpit foe-control assumption and with extra
passengers, the two must number the same states in the same order and
write the same edge rows with the same label objects.  The other tests pin
when ``successors`` switches to the writer (once an exploration knows
``THRESHOLD`` states), that a default run agrees with the closures across
that switch, where a state cap past it raises, that rows are whole at the
cap, what enters the source, and the exit-code contract for conditions
nested deeper than Python compiles, whose failed build is tried once.
"""

import re

import pytest

from children import run_python
from genmodels import random_model, with_passengers
from insiderctl import airplane, ctl, nextstate, transition
from insiderctl.ctl import ExplorationLimitError, KripkeModel, check, dot_export, reachable
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


def assert_same_rows(model: Model) -> KripkeModel:
    """Explore ``model`` with the generated writer from state 0 and with the
    closures alone; the two must agree.  Returns the closures' structure."""
    t = tables(model)
    t.step = nextstate.build(t)
    assert callable(t.step)
    generated = reachable(model)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transition, "THRESHOLD", 10**9)
        t.step = None
        closures = reachable(model)
    assert_same_structure(generated, closures)
    for v in closures.states:  # a no-op instance gives v itself, which needs no lookup
        assert all((s is v) == (s == v) for _, s in transition.successors(model, v))
    return closures


def assert_same_structure(k: KripkeModel, ref: KripkeModel) -> None:
    for name in ("states", "targets", "offsets", "index"):
        assert getattr(k, name) == getattr(ref, name), name
    assert len(k.labels) == len(ref.labels)
    assert all(a is b for a, b in zip(k.labels, ref.labels))


def test_random_models_seeds_0_to_199():
    deadlocking = 0
    for seed in range(200):
        k = assert_same_rows(random_model(seed))
        deadlocking += any(a == b for a, b in zip(k.offsets, k.offsets[1:]))
    assert deadlocking > 0


@pytest.mark.parametrize("name", AIRPLANES)
def test_airplane_variants(name):
    k = assert_same_rows(airplane_model(*AIRPLANES[name]))
    assert len(k.states) == (21 if name.startswith("four_eyes") else 243 * 2 ** AIRPLANES[name][2])


@pytest.mark.parametrize("name", AIRPLANES)
def test_each_guard_is_said_once(name):
    text, _, _ = nextstate.source(tables(airplane_model(*AIRPLANES[name])))
    guards = re.findall(r"^  g\d+ = (.*)$", text, re.M)
    assert guards and len(set(guards)) == len(guards)


def test_three_passengers_match_the_closures(monkeypatch):
    model = airplane_model("baseline", False, 3)
    k = reachable(model)
    assert len(k.states) == 1944 and callable(tables(model).step)
    monkeypatch.setattr(transition, "THRESHOLD", 10**9)
    tables(model).step = None
    assert_same_structure(k, reachable(model))


@pytest.mark.parametrize("cap", [65, 100, 242, 243])
def test_a_cap_past_the_threshold_raises_where_the_closures_do(monkeypatch, cap):
    def outcome():
        try:
            return len(reachable(airplane_model("baseline", False, 0), max_states=cap).states)
        except ExplorationLimitError as exc:
            return str(exc)

    generated = outcome()
    monkeypatch.setattr(transition, "THRESHOLD", 10**9)
    assert generated == outcome() == (243 if cap == 243 else f"state space exceeds the cap of {cap} states")


def whole_rows(monkeypatch) -> list:
    """Have ``ctl`` check after each row it writes that the row is whole;
    returns the list of each row's ``(states before, states after)``."""
    rows, write = [], transition.successors

    def checked(model, v, x):
        before = len(x.states)
        out = write(model, v, x)
        assert len(x.labels) == len(x.targets) == x.offsets[-1] and out.stop == len(x.targets)
        rows.append((before, len(x.states)))
        return out

    monkeypatch.setattr(ctl, "successors", checked)
    return rows


def assert_raises_after_the_crossing_row(model, cap, rows) -> None:
    rows.clear()
    with pytest.raises(ExplorationLimitError) as exc:
        reachable(model, max_states=cap)
    assert str(exc.value) == f"state space exceeds the cap of {cap} states"
    before, after = rows[-1]
    assert before < cap < after and all(b <= cap for _, b in rows[:-1])


def test_rows_are_whole_at_the_cap(monkeypatch):
    """A cap that falls inside a row raises after that row, written whole:
    on the baseline airplane past the threshold, and on every random model
    of at least 10 states, inside its last row that finds two states."""
    rows = whole_rows(monkeypatch)
    for cap in (65, 100, 242):
        assert_raises_after_the_crossing_row(airplane_model("baseline", False, 0), cap, rows)
    capped = 0
    for seed in range(200):
        rows.clear()
        model = random_model(seed)
        if len(reachable(model).states) >= 10:
            cap = [before for before, after in rows if after - before > 1][-1] + 1
            assert_raises_after_the_crossing_row(model, cap, rows)
            capped += 1
    assert capped == 37


def test_successors_switches_once_the_threshold_states_are_known():
    """A model gets its writer before the first row an exploration writes
    once it knows ``THRESHOLD`` states: the baseline airplane's row 14, with
    67 known.  An exploration that never knows that many, or that a cap
    stops first, builds none, however often it runs."""
    large = airplane_model("baseline", False, 0)
    x = transition.Exploration(large, encode(large, large.initial))
    known = []
    for i in range(20):
        known.append(len(x.states))
        transition.successors(large, x.states[i], x)
        assert callable(tables(large).step) == (known[-1] >= transition.THRESHOLD), i
    assert known[13] < transition.THRESHOLD <= known[14] == 67

    small = [airplane_model("four_eyes", foe, pax) for foe in (False, True) for pax in (0, 1, 2)]
    for model in small:
        for _ in range(2):
            assert len(reachable(model).states) < transition.THRESHOLD
    baseline = airplane_model("baseline", False, 0)
    assert ctl.find_witness(baseline, parse_formula("EF eve_violates"))[1] is not None
    randoms = [random_model(seed) for seed in range(200)]
    randoms = [m for m in randoms if len(reachable(m).states) < transition.THRESHOLD]
    assert len(randoms) == 190
    for model in [*small, baseline, *randoms]:
        assert tables(model).step is None

    for cap in (1, 63, 66, 67):
        model = airplane_model("baseline", False, 0)
        with pytest.raises(ExplorationLimitError):
            reachable(model, max_states=cap)
        step = tables(model).step
        assert callable(step) if cap == 67 else step is None, cap


SWITCHING = {
    **{f"airplane:{name}": AIRPLANES[name] for name in AIRPLANES},
    **{f"random:{seed}": seed for seed in (27, 39, 45, 100, 101, 138, 156, 186, 187, 191)},
}


@pytest.mark.parametrize("name", SWITCHING)
def test_a_default_run_agrees_with_the_closures_across_the_switch(monkeypatch, name):
    """``reachable`` as it runs, switching to the writer once it knows
    ``THRESHOLD`` states, against the closures alone: the same structure,
    label objects, verdicts and DOT bytes.  The random seeds are the ten
    below 200 whose models reach ``THRESHOLD`` states."""
    if name.startswith("random:"):
        model, goal = random_model(SWITCHING[name]), ("AG goal", "EF goal")
    else:
        model, goal = airplane_model(*SWITCHING[name]), ("AG eve_ok", "EF eve_violates")
    formulas = [parse_formula(f) for f in goal]
    k, t = reachable(model), tables(model)
    switched = len(k.states) >= transition.THRESHOLD
    assert callable(t.step) if switched else t.step is None
    assert switched != name.startswith("airplane:four_eyes")
    monkeypatch.setattr(transition, "THRESHOLD", 10**9)
    t.step = None
    ref = reachable(model)
    assert t.step is None
    assert_same_structure(k, ref)
    assert [check(k, f).holds for f in formulas] == [check(ref, f).holds for f in formulas]
    assert dot_export(k) == dot_export(ref)


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
    assert callable(tables(generated.model).step)
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


def test_a_condition_deeper_than_the_compiler_keeps_the_closures(monkeypatch):
    """The build fails once, and the model remembers it: a later
    exploration that knows ``THRESHOLD`` states does not try again."""
    model, deep = alternating(300)
    door = model.locations[1]
    policies = {**model.policy_map, door: model.policy_map[door] | {AtomicPolicy(deep, {"put"})}}
    deep_model = model._clone(policy_variants={"baseline": policies})
    builds, build = [], nextstate.build
    monkeypatch.setattr(nextstate, "build", lambda t: builds.append(build(t)) or builds[-1])
    k, again = reachable(deep_model), reachable(deep_model)
    assert len(k.states) > transition.THRESHOLD and builds == [None]
    assert tables(deep_model).step is False
    plain = reachable(model)
    assert k.states == again.states == plain.states and dot_export(k) == dot_export(plain)


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
    assert_same_rows(model._clone(policy_variants={"baseline": policies}))


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
