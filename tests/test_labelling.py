"""The linear-time labeller against its fixpoint reference, the on-the-fly
witness against ``extract_trace`` on the whole structure, the absence
of reference cycles in what the engine returns, and the rows of edges
that the labeller's index is built from.

The labeller runs three primitives over the predecessor index and derives
the other seven operators by duality; ``debug=True`` also iterates each
operator's set transformer to its fixpoint over the labelled edges and
raises on any difference.  ``genmodels.random_model`` seeds 0-199 include
74 models with deadlock states, where AX is vacuously true.
"""

import gc
import itertools
from pathlib import Path

import pytest

from genmodels import random_model, with_false_predicates, with_passengers
from insiderctl import airplane
from insiderctl.cli import run_command
from insiderctl.ctl import (
    AF,
    AG,
    AR,
    AU,
    AX,
    EF,
    EG,
    ER,
    EU,
    EX,
    Exploration,
    ExplorationLimitError,
    KripkeModel,
    Pred,
    TracePath,
    check,
    dot_export,
    eval_ctl,
    extract_trace,
    find_witness,
    reachable,
)
from insiderctl.model import And, IsIn, Not, Or, PAt, StatePredicate, tables
from insiderctl.modelfile import parse_model, serialize_model
from insiderctl.transition import successors

UNARY = (EX, AX, EF, AF, EG, AG)
BINARY = (EU, AU, ER, AR)
SEEDS = range(200)
ROOT = Path(__file__).resolve().parent
MODEL = str(ROOT / "data" / "airplane.model")


def depth1(name: str) -> list:
    """Each of the ten operators over ``name`` and its negation."""
    atoms = [Pred(name), Not(Pred(name))]
    return [op(x) for op in UNARY for x in atoms] + [
        op(x, y) for op in BINARY for x, y in itertools.product(atoms, atoms)
    ]


def depth2(name: str) -> list:
    """Each of the ten operators again over every third formula of
    :func:`depth1`, binary ones over it and its neighbour."""
    inner = depth1(name)
    pairs = list(zip(inner, inner[1:] + inner[:1]))[::3]
    return [op(f) for op in UNARY for f in inner[::3]] + [
        op(f, g) for op in BINARY for f, g in pairs
    ]


def paper_models() -> list:
    four_eyes = airplane.build_airplane_model("four_eyes")
    return [
        ("baseline", airplane.build_airplane_model("baseline")),
        ("four_eyes", four_eyes),
        ("four_eyes+foe", four_eyes.with_assumptions([airplane.cockpit_foe_control()])),
    ]


@pytest.fixture(scope="module")
def random_models():
    return [(seed, with_false_predicates(random_model(seed))) for seed in SEEDS]


@pytest.fixture(scope="module")
def random_kripkes(random_models):
    return [(seed, reachable(model)) for seed, model in random_models]


@pytest.fixture(scope="module")
def row_kripkes(random_kripkes):
    """The random structures and the airplane with 0-2 extra passengers."""
    baseline = airplane.build_airplane_model("baseline")
    extra = [(f"+{n}pax", reachable(with_passengers(baseline, n))) for n in range(3)]
    return random_kripkes + extra


def test_seeds_include_deadlocks(random_kripkes):
    deadlocking = [seed for seed, k in random_kripkes if any(not out for out in k.edges)]
    assert len(deadlocking) == 74


def test_labelling_matches_the_fixpoint_reference(random_kripkes):
    """Depth 2 where the reference is quick; the one structure of more than
    400 states (seed 186, 6 144 states) at depth 1."""
    shallow, deep = depth1("goal"), depth2("goal")
    for seed, k in random_kripkes:
        for f in shallow + deep if len(k.states) <= 400 else shallow:
            assert eval_ctl(k, f) == eval_ctl(k, f, debug=True), (seed, f)


@pytest.mark.parametrize("name,model", paper_models(), ids=[n for n, _ in paper_models()])
def test_labelling_matches_the_fixpoint_reference_on_the_airplane(name, model):
    k = reachable(model)
    for f in depth1("eve_ok") + depth2("eve_ok"):
        assert eval_ctl(k, f) == eval_ctl(k, f, debug=True), (name, f)


def test_deadlocks_satisfy_every_ax_af_and_ag_of_what_holds_there(random_kripkes):
    for seed, k in random_kripkes:
        dead = frozenset(i for i, out in enumerate(k.edges) if not out)
        goal = k.label("goal")
        assert dead <= eval_ctl(k, AX(Pred("never")))
        assert dead <= eval_ctl(k, AF(Pred("never")))
        assert dead & goal <= eval_ctl(k, AG(Pred("goal")))
        assert not dead & eval_ctl(k, EG(Pred("always"))), seed


def test_index_is_built_once(baseline_kripke):
    b = baseline_kripke
    k = KripkeModel(b.model, b.states, b.targets, b.labels, b.offsets, b.init, b.index)
    preds, degree = k.backward()
    assert k.backward()[0] is preds and k.backward()[1] is degree
    assert k.label("eve_ok") is k.label("eve_ok")
    succ = [set(k.successors_of(i)) for i in range(len(k.states))]
    assert list(degree) == [len(s) for s in succ]
    assert [set(p) for p in preds] == [
        {i for i in range(len(k.states)) if j in succ[i]} for j in range(len(k.states))
    ]
    assert all(len(set(p)) == len(p) for p in preds)


def test_index_equals_a_naive_recomputation(row_kripkes):
    for seed, k in row_kripkes:
        succ = [{j for _, j in out} for out in k.edges]
        preds = [set() for _ in k.states]
        for i, js in enumerate(succ):
            for j in js:
                preds[j].add(i)
        assert k.backward() == (tuple(tuple(sorted(p)) for p in preds), tuple(map(len, succ))), seed


def test_rows_are_the_successors_in_order(row_kripkes):
    """``k.edges`` views the flat edge lists as one row per state."""
    for name, k in row_kripkes:
        for v, out in zip(k.states, k.edges):
            assert list(out) == [(label, k.index[s]) for label, s in successors(k.model, v)], name


def test_rows_behave_like_lists(row_kripkes):
    """A row iterates, again on each pass, as the ``(label, j)`` pairs of
    its span of the flat lists, has their ``len`` and takes ``in``; and
    ``k.edges`` is a list built on each read."""
    for name, k in row_kripkes:
        edges, n, offsets = k.edges, len(k.states), k.offsets
        lists = [list(out) for out in edges]
        assert type(edges) is list and len(edges) == n
        for i, (out, pairs) in enumerate(zip(edges, lists)):
            a, b = offsets[i], offsets[i + 1]
            assert pairs == list(out) == list(zip(k.labels[a:b], k.targets[a:b])), name
            assert len(out) == len(pairs) and (None, n) not in out
            if pairs:
                assert pairs[len(pairs) // 2] in out
        edges.pop()
        assert len(edges) == n - 1 and len(k.edges) == n


# ---------------------------------------------------------------------------
# The on-the-fly witness


def propositional_goals(model) -> list:
    names = sorted(n for n, p in model.named_predicates.items() if p.param is None)
    goals = [Pred(n) for n in names] + [Not(Pred(n)) for n in names]
    if len(names) > 1:
        a, b = Pred(names[0]), Pred(names[-1])
        goals += [And(a, Not(b)), Or(Not(a), b)]
    return goals


def assert_same_witness(k, goal, label):
    """``find_witness`` on ``k``'s model against ``extract_trace`` on ``k``;
    returns the witness."""
    explored, path = find_witness(k.model, EF(goal))
    if not check(k, EF(goal)).holds:
        assert path is None and len(explored.states) == len(k.states), label
        return None
    assert path == extract_trace(k, EF(goal), "witness"), label
    assert isinstance(explored, Exploration)
    assert explored.states == k.states[: len(explored.states)], label
    return path


def assert_cap_counts_states_up_to_the_goal(model, goal, path) -> bool:
    """A cap of the goal's number plus one admits the witness, written in
    whole rows, and one less raises; returns whether that cap falls inside
    the goal's row, which then also reaches a state past the goal."""
    last = path.states[-1]
    explored, capped = find_witness(model, EF(goal), max_states=last + 1)
    assert capped == path
    assert len(explored.labels) == len(explored.targets) == explored.offsets[-1]
    with pytest.raises(ExplorationLimitError) as exc:
        find_witness(model, EF(goal), max_states=last)
    assert str(exc.value) == f"state space exceeds the cap of {last} states"
    preds = reachable(model).backward()[0]
    return last + 1 < len(preds) and path.states[-2:-1] == preds[last + 1][:1]


def test_witness_on_the_fly_equals_the_extracted_one(random_kripkes):
    """Every goal where exploration is quick; on seed 186 (6 144 states)
    the first two."""
    capped = inside = 0
    for seed, k in random_kripkes:
        small = len(k.states) <= 400
        for goal in propositional_goals(k.model)[: None if small else 2]:
            path = assert_same_witness(k, goal, (seed, goal))
            if path and small:
                inside += assert_cap_counts_states_up_to_the_goal(k.model, goal, path)
                capped += 1
    assert capped > 100 and inside > 50


def with_goal(model, body):
    named = {**model.named_predicates, "goal": StatePredicate("goal", body)}
    return model._clone(named_predicates=named)


def cockpit_goal(model):
    """``model`` with ``goal``: Alice in the cockpit, which takes steps."""
    return with_goal(model, PAt("Alice", airplane.cockpit))


@pytest.mark.parametrize("name,model", paper_models(), ids=[n for n, _ in paper_models()])
def test_witness_on_the_fly_on_the_airplane(name, model):
    model = cockpit_goal(model)
    k = reachable(model)
    for goal in propositional_goals(model):
        assert_same_witness(k, goal, (name, goal))


def test_witness_stops_at_the_first_goal_state(baseline_model):
    explored, path = find_witness(baseline_model, EF(Pred("eve_violates")))
    assert len(path) == 0 and len(explored.states) == 1
    model = cockpit_goal(baseline_model)
    explored, path = find_witness(model, EF(Pred("goal")))
    assert len(path) == 1 and path.states[-1] + 1 == len(explored.states) < 243
    assert assert_cap_counts_states_up_to_the_goal(model, Pred("goal"), path)


def test_a_goal_at_state_0_is_capped_as_reachable_caps(baseline_model):
    """With its goal at state 0, the witness counts that state against the
    cap: a cap of 0 raises the text ``reachable`` raises, a cap of 1 gives
    the 0-step path, with no row written."""
    goal = EF(Pred("eve_violates"))
    with pytest.raises(ExplorationLimitError) as exc:
        find_witness(baseline_model, goal, max_states=0)
    with pytest.raises(ExplorationLimitError) as expected:
        reachable(baseline_model, max_states=0)
    assert str(exc.value) == str(expected.value) == "state space exceeds the cap of 0 states"
    explored, path = find_witness(baseline_model, goal, max_states=1)
    assert path == TracePath((0,), ()) and len(explored.states) == 1
    assert explored.offsets == [0] and explored.targets == explored.labels == []


def test_witness_past_the_threshold_stops_at_the_goal(baseline_model):
    """The goal, state 157, is first reached from state 64, a row that the
    generated writer writes; a cap of 158 falls inside that row, after the goal."""
    placed = And(PAt("Alice", airplane.door), PAt("Bob", airplane.cockpit))
    placed = And(placed, PAt("Charly", airplane.cabin))
    values = And(IsIn(airplane.door, "locked"), IsIn(airplane.cockpit, "ground"))
    model = with_goal(baseline_model, And(placed, values))
    path = assert_same_witness(reachable(model), Pred("goal"), "past the threshold")
    assert path.states == (0, 1, 13, 64, 157)
    explored, _ = find_witness(model, EF(Pred("goal")))
    assert len(explored.offsets) == 65 and explored.offsets[-1] == len(explored.targets)
    assert len(explored.index) == 158 and callable(tables(model).step)
    assert assert_cap_counts_states_up_to_the_goal(model, Pred("goal"), path)


def test_witness_of_a_temporal_goal_labels_the_whole_structure(four_eyes_model):
    goal = EX(Not(Pred("eve_ok")))
    k, path = find_witness(four_eyes_model, EF(goal))
    assert isinstance(k, KripkeModel) and len(k.states) == 21
    assert path == extract_trace(k, EF(goal), "witness")


def test_cli_witness_counts_only_the_states_before_the_goal(capsys, tmp_path):
    assert run_command(["witness", MODEL, "EF eve_violates", "--max-states", "1"]) == 0
    golden = (ROOT / "data" / "golden" / "witness_baseline.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
    path = tmp_path / "cockpit.model"
    path.write_text(serialize_model(cockpit_goal(airplane.build_airplane_model("baseline"))))
    explored, witness = find_witness(parse_model(path.read_text()), EF(Pred("goal")))
    cap = str(len(explored.states))
    assert run_command(["witness", str(path), "EF goal", "--max-states", cap]) == 0
    assert capsys.readouterr().out.startswith("witness (1 steps):\n")
    assert run_command(["witness", str(path), "EF goal", "--max-states", str(int(cap) - 1)]) == 2
    assert f"exceeds the cap of {int(cap) - 1} states" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Reference cycles


def test_results_hold_no_reference_cycles(random_models):
    """Everything here is freed by reference counting alone: with the
    cyclic collector off, it finds nothing afterwards."""
    docs = [serialize_model(airplane.build_airplane_model("baseline"))]
    docs += [serialize_model(model) for seed, model in random_models[:60]]
    battery = {name: depth1(name) for name in ("eve_ok", "goal")}
    gc.collect()
    gc.disable()
    try:
        for doc in docs:
            model = parse_model(doc)
            k = reachable(model)
            name = "goal" if "goal" in model.named_predicates else "eve_ok"
            for f in battery[name]:
                verdict = check(k, f)
                if isinstance(f, EF) and verdict.holds:
                    extract_trace(k, f, "witness")
                elif isinstance(f, AG) and not verdict.holds:
                    extract_trace(k, f, "counterexample")
            dot_export(k)
            find_witness(model, EF(Pred(name)))
            del model, k, verdict
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
