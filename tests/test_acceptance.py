"""Acceptance suite: every criterion runs at its stated tolerance (exact
booleans, exact set and path equality, exact float arithmetic) and prints
one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import contextlib
import random
from pathlib import Path

from insiderctl.airplane import (
    AIRPLANE_ACTORS,
    aid_graph,
    agid_graph,
    aid_graph0,
    build_airplane_model,
    cockpit,
    cockpit_foe_control,
    ex_graph,
    global_policy,
    risk_compare,
    safety,
    security,
)
from insiderctl.cli import run_command
from insiderctl.ctl import (
    AG,
    EF,
    Pred,
    check,
    encode,
    eval_ctl,
    extract_trace,
    lfp_iterate,
    gfp_iterate,
    reachable,
    shortest_path,
    shortest_path_via,
)
from insiderctl.formula import parse_formula, pretty
from insiderctl.model import Not
from insiderctl.modelfile import parse_model, serialize_model

from genmodels import random_model
from oracles import backward_closure

DATA = Path(__file__).parent / "data"


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"[criterion {num:02d}] FAIL {name}")
        raise
    print(f"[criterion {num:02d}] PASS {name}")


def test_c01_global_policy_verdicts(baseline_model):
    with criterion(1, "global policy holds for Bob and Charly, fails for Eve"):
        g = ex_graph()
        assert global_policy(baseline_model, g, "Bob") is True
        assert global_policy(baseline_model, g, "Charly") is True
        assert global_policy(baseline_model, g, "Eve") is False


def test_c02_safety_and_security(baseline_model):
    with criterion(2, "initial-state safety for Alice, security for Bob"):
        assert safety(baseline_model, ex_graph(), "Alice") is True
        assert security(baseline_model, ex_graph(), "Bob") is True


def test_c03_three_step_attack_path(baseline_kripke):
    with criterion(3, "danger state reached in exactly 3 steps via both intermediates"):
        k = baseline_kripke
        target = encode(k.model, aid_graph())
        assert target in k.index  # reachability itself
        path = shortest_path_via(
            k,
            [encode(k.model, aid_graph0()), encode(k.model, agid_graph()), encode(k.model, aid_graph())],
        )
        assert path is not None and len(path) == 3
        assert [k.states[i] for i in path.states] == [
            encode(k.model, ex_graph()),
            encode(k.model, aid_graph0()),
            encode(k.model, agid_graph()),
            encode(k.model, aid_graph()),
        ]
        # each leg is a single transition, so no shorter path visits both
        # intermediates in order
        for a, b in zip(path.states, path.states[1:]):
            assert b in {j for _, j in k.edges[a]}


def test_c04_attack_discovery(baseline_kripke):
    with criterion(4, "EF attack formula holds with a length-0 witness"):
        formula = parse_formula("EF eve_violates")
        assert check(baseline_kripke, formula, debug=True).holds is True
        witness = extract_trace(baseline_kripke, formula, "witness")
        assert len(witness) == 0
        assert witness.states == (0,)


def test_c05_four_eyes_global_proof(four_eyes_model, four_eyes_kripke, assumed_kripke):
    with criterion(5, "AG security holds exactly under foe control, fails without"):
        formula = parse_formula("AG eve_ok")
        assert check(assumed_kripke, formula, debug=True).holds is True
        verdict = check(four_eyes_kripke, formula, debug=True)
        assert verdict.holds is False
        counterexample = extract_trace(four_eyes_kripke, formula, "counterexample")
        assert counterexample.states == (0,)


def test_c06_two_person_invariant(four_eyes_kripke, assumed_kripke):
    with criterion(6, "cockpit occupancy >= 2 in every reachable four-eyes state"):
        for k in (four_eyes_kripke, assumed_kripke):
            violations = [
                i for i, g in enumerate(k.graphs) if len(g.placement(cockpit)) < 2
            ]
            assert violations == []


def _sweep_preservation(k):
    graphs, edges = k.graphs, k.edges  # each read builds them anew
    base = graphs[0]
    for out in edges:
        for _, j in out:
            succ = graphs[j]
            assert succ.edges == base.edges
            assert set(succ.actors()) == set(base.actors())
            placed = list(succ.actors())
            assert len(placed) == len(set(placed))  # one location each, no dups
            for loc, ids in succ.placements.items():
                assert len(ids) == len(set(ids))


def test_c07_preservation_sweeps(baseline_kripke, four_eyes_kripke, assumed_kripke):
    with criterion(7, "node, actor, and uniqueness preservation on every edge"):
        for k in (baseline_kripke, four_eyes_kripke, assumed_kripke):
            _sweep_preservation(k)
        for seed in range(20):
            _sweep_preservation(reachable(random_model(seed), max_states=50000))


def test_c08_insider_exclusion_sweeps(four_eyes_kripke, assumed_kripke):
    with criterion(8, "insider never in cockpit; a non-foe is always present"):
        for k in (four_eyes_kripke, assumed_kripke):
            foe = k.model.resolver.actor_of("Eve")
            for g in k.graphs:
                occupants = g.placement(cockpit)
                assert "Eve" not in occupants
                assert any(k.model.resolver.actor_of(x) != foe for x in occupants)
                assert set(occupants) <= AIRPLANE_ACTORS


def test_c09_fixpoint_properties(baseline_kripke, four_eyes_kripke, assumed_kripke):
    with criterion(9, "fixpoint bounds, chain monotonicity, duality, EF oracle"):
        airplane_kripkes = (baseline_kripke, four_eyes_kripke, assumed_kripke)

        def ex_step(k, z):  # k.edges is built on each read, so it is read once
            return frozenset(i for i, out in enumerate(k.edges) if any(j in z for _, j in out))

        def ax_step(k, z):
            return frozenset(i for i, out in enumerate(k.edges) if all(j in z for _, j in out))

        for k in airplane_kripkes:
            universe = k.universe
            goal = eval_ctl(k, Pred("eve_violates"))
            calls = 0

            def ef_transformer(z):
                nonlocal calls
                calls += 1
                return goal | ex_step(k, z)

            ef = lfp_iterate(ef_transformer, universe)
            assert calls <= len(universe) + 1  # convergence bound
            assert ef == eval_ctl(k, EF(Pred("eve_violates")), debug=True)

            safe = eval_ctl(k, Pred("eve_ok"))
            calls = 0

            def ag_transformer(z):
                nonlocal calls
                calls += 1
                return safe & ax_step(k, z)

            ag = gfp_iterate(ag_transformer, universe)
            assert calls <= len(universe) + 1
            # duality, state-set exact (also asserted inside debug evaluation)
            assert eval_ctl(k, AG(Pred("eve_ok")), debug=True) == universe - eval_ctl(
                k, EF(Not(Pred("eve_ok")))
            )
            assert ag == eval_ctl(k, AG(Pred("eve_ok")))
            # EF equals the independent backward-reachability closure
            assert ef == backward_closure(k.edges, goal)

        for seed in range(100):
            k = reachable(random_model(seed), max_states=50000)
            goal = eval_ctl(k, Pred("goal"))
            assert eval_ctl(k, EF(Pred("goal")), debug=True) == backward_closure(
                k.edges, goal
            )
            assert eval_ctl(k, AG(Pred("goal")), debug=True) == k.universe - eval_ctl(
                k, EF(Not(Pred("goal")))
            )


def test_c10_risk_formulas():
    with criterion(10, "risk formulas exact; range and monotonicity over 1000 samples"):
        assert risk_compare(0.1, 0.2, 0.5).two_person == 0.5
        assert risk_compare(0.0, 0.0, 0.3).one_person == 0.0
        rng = random.Random(42)
        for _ in range(1000):
            p0, p1, p2 = rng.random(), rng.random(), rng.random()
            r = risk_compare(p0, p1, p2)
            assert r.one_person == p0 + p1 - p0 * p1  # formula as written
            assert r.two_person == p2
            assert 0.0 <= r.one_person <= 1.0 and 0.0 <= r.two_person <= 1.0
            # monotone in each argument
            q0 = min(1.0, p0 + rng.random() * (1.0 - p0))
            q1 = min(1.0, p1 + rng.random() * (1.0 - p1))
            assert risk_compare(q0, p1, p2).one_person >= r.one_person
            assert risk_compare(p0, q1, p2).one_person >= r.one_person
            assert risk_compare(p0, p1, min(1.0, p2 + 0.1)).two_person >= r.two_person


def test_c11_door_automaton():
    with criterion(11, "door scenarios with exact 30/35/300 boundary arithmetic"):
        from insiderctl.door import INITIAL, LOCKED, NORMAL, DoorEvent, DoorState, door_run, door_step, is_open

        # scenario 1: emergency window opens at 30 s and closes at 35 s
        s = door_step(INITIAL, DoorEvent("pin_correct"))
        s = door_step(s, DoorEvent("epsilon", 30))
        assert is_open(s) and s.pin_timer == 30.0
        s = door_step(s, DoorEvent("epsilon", 5))
        assert not is_open(s) and s.pin_timer is None

        # scenario 2: lock preempts the window; lockout expires at exactly 300 s
        trace = door_run(
            [
                DoorEvent("pin_correct"),
                DoorEvent("epsilon", 10),
                DoorEvent("lock"),
                DoorEvent("epsilon", 299),
                DoorEvent("epsilon", 1),
            ]
        )
        assert all(not step.is_open for step in trace)
        assert trace[3].state.mode == LOCKED and trace[3].state.clock == 299.0
        assert trace[4].state == DoorState(NORMAL, 0.0, None)

        # scenario 3: unlock acts immediately from any mode
        for start in (INITIAL, DoorState(LOCKED, 120.0), DoorState(NORMAL, 3.0, 31.0)):
            assert door_step(start, DoorEvent("unlock")) == DoorState("Unlocked", 0.0, None)


def test_c12_formats_and_exit_codes(capsys):
    with criterion(12, "round-trips, golden file identity, exit-code contract"):
        golden = (DATA / "airplane.model").read_text()
        assert parse_model(golden) == build_airplane_model("baseline")
        assert serialize_model(build_airplane_model("baseline")) == golden
        for variant in ("baseline", "four_eyes"):
            m = build_airplane_model(variant)
            assert parse_model(serialize_model(m)) == m
        for seed in range(25):
            m = random_model(seed)
            assert parse_model(serialize_model(m)) == m
        for text in ("AG eve_ok", "EF !eve_ok", "A[p U q] & EX r", "E[a R b] | !c"):
            assert pretty(parse_formula(text)) == text
        model_path = str(DATA / "airplane.model")
        assert run_command(["check", model_path, "AG eve_ok", "--variant", "four_eyes",
                            "--assume", "foe:cockpit:put:Eve"]) == 0
        assert run_command(["check", model_path, "AG eve_ok", "--variant", "four_eyes"]) == 1
        assert run_command(["check", model_path, "AG (eve_ok"]) == 2
        assert run_command(["check", "missing.model", "AG eve_ok"]) == 2
        capsys.readouterr()
