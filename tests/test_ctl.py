import gc
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from insiderctl.ctl import (
    AG,
    AX,
    EF,
    EX,
    KripkeModel,
    MonotonicityError,
    Pred,
    TraceError,
    check,
    dot_export,
    encode,
    eval_ctl,
    extract_trace,
    formula_predicates,
    gfp_iterate,
    lfp_iterate,
    reachable,
    shortest_path,
    shortest_path_via,
)
from insiderctl.ctl import ExplorationLimitError
from insiderctl.model import ModelError, Not, PBool, StatePredicate
from insiderctl.airplane import (
    aid_graph,
    agid_graph,
    aid_graph0,
    build_airplane_model,
    cockpit,
    ex_graph,
)
from insiderctl.formula import parse_formula
from insiderctl.modelfile import ModelParseError, parse_model

from genmodels import with_passengers
from oracles import backward_closure

BASELINE_STATES = 243  # frozen from the naive breadth-first oracle
FOUR_EYES_STATES = 21


def with_constants(model):
    preds = dict(model.named_predicates)
    preds["always"] = StatePredicate("always", PBool(True))
    preds["never"] = StatePredicate("never", PBool(False))
    return model._clone(named_predicates=preds)


def flat(edges) -> tuple:
    """``edges``, one list of ``(label, j)`` pairs per state, as a
    :class:`KripkeModel`'s ``targets``, ``labels`` and ``offsets``."""
    pairs, offsets = [pair for out in edges for pair in out], [0]
    for out in edges:
        offsets.append(offsets[-1] + len(out))
    return [j for _, j in pairs], [label for label, _ in pairs], offsets


class TestEncode:
    def test_placement_order_is_canonical(self, baseline_model):
        from insiderctl.model import InfraGraph

        g = agid_graph()
        shuffled = InfraGraph(
            g.edges,
            {loc: tuple(reversed(ids)) for loc, ids in g.placements.items()},
            g.credentials,
            g.roles,
            g.loc_value,
        )
        assert encode(baseline_model, g) == encode(baseline_model, shuffled)

    def test_distinguishes_values(self, baseline_model):
        assert encode(baseline_model, agid_graph()) != encode(baseline_model, aid_graph())

    def test_ignores_edges(self, baseline_model):
        g = ex_graph()
        from insiderctl.model import InfraGraph

        stripped = InfraGraph(frozenset(), g.placements, g.credentials, g.roles, g.loc_value)
        assert encode(baseline_model, g) == encode(baseline_model, stripped)

    def test_roundtrip_separates_fields(self, baseline_model):
        from insiderctl.model import InfraGraph

        g = ex_graph()
        other = InfraGraph(
            g.edges, g.placements, {**g.credentials, "Eve": {"PIN"}}, g.roles, g.loc_value
        )
        assert encode(baseline_model, g) != encode(baseline_model, other)


class TestReachable:
    def test_baseline_contains_the_danger_state(self, baseline_kripke):
        assert encode(baseline_kripke.model, aid_graph()) in baseline_kripke.index

    def test_baseline_state_count(self, baseline_kripke):
        assert len(baseline_kripke.states) == BASELINE_STATES

    def test_four_eyes_state_count(self, four_eyes_kripke):
        assert len(four_eyes_kripke.states) == FOUR_EYES_STATES

    def test_state_counts_match_naive_oracle(self, baseline_model, four_eyes_model):
        from oracles import o_reach, o_world

        for model, expected in ((baseline_model, BASELINE_STATES), (four_eyes_model, FOUR_EYES_STATES)):
            worlds, _ = o_reach(model)
            assert len(worlds) == expected
            kripke = reachable(model)
            assert {o_world(g) for g in kripke.graphs} == worlds

    def test_empty_policies_yield_singleton(self, baseline_model):
        empty = baseline_model._clone(policy_variants={"baseline": {}})
        k = reachable(empty)
        assert len(k.states) == 1
        assert k.edges == [[]]
        assert k.init == frozenset({0})

    def test_state_cap_overflow(self, baseline_model):
        with pytest.raises(ExplorationLimitError, match="10"):
            reachable(baseline_model, max_states=10)

    def test_discovery_order_deterministic(self, baseline_model):
        a = reachable(baseline_model)
        b = reachable(baseline_model)
        assert a.states == b.states
        assert a.edges == b.edges

    def test_non_closed_payload_rejected(self, baseline_kripke):
        k = baseline_kripke
        with pytest.raises(ModelError, match="state 1 is not initial"):
            KripkeModel(k.model, k.states, *flat([[] for _ in k.states]), k.init, k.index)

    def test_closed_payload_out_of_discovery_order_rejected(self, baseline_kripke):
        """Renumbered in reverse, every state is still reachable from the
        initial one, which is now the last; the numbering rule fails."""
        k, n = baseline_kripke, len(baseline_kripke.states)
        edges = [[(label, n - 1 - j) for label, j in out] for out in reversed(k.edges)]
        index = {v: n - 1 - i for v, i in k.index.items()}
        with pytest.raises(ModelError, match="no predecessor with a lower number"):
            KripkeModel(k.model, k.states[::-1], *flat(edges), frozenset({n - 1}), index)

    @pytest.mark.parametrize("target", ["n", -1])
    @pytest.mark.parametrize("unreached", [False, True], ids=["from s0", "from an unreached state"])
    def test_edge_to_an_unknown_state_rejected(self, baseline_kripke, target, unreached):
        k = baseline_kripke
        states, edges = list(k.states), [list(out) for out in k.edges]
        if unreached:
            states.append(("unreached",))
            edges.append([])
        n = len(states)
        label = k.edges[0][0][0]
        edges[-1 if unreached else 0].append((label, n if target == "n" else target))
        with pytest.raises(ModelError, match="targets unknown state"):
            KripkeModel(k.model, states, *flat(edges), k.init, k.index)


class TestMemory:
    """Deterministic guards on the Kripke store's memory: tracemalloc
    counts bytes, where times vary by host."""

    @pytest.fixture(scope="class")
    def three(self, baseline_model):
        model = with_passengers(baseline_model, 3)
        reachable(model)  # the model's tables and next-state function, outside the count
        return model

    @staticmethod
    def traced(make):
        """``make()``, the bytes it leaves allocated, and its peak."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            made = make()
            gc.collect()
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return made, now - before, peak - before

    def test_reachable_keeps_at_most_48_bytes_per_labelled_edge(self, three):
        k, kept, _ = self.traced(lambda: reachable(three))
        assert len(k.states) == 1944
        assert kept <= 48 * sum(len(out) for out in k.edges)

    def test_dot_export_peaks_below_2_3_times_its_output(self, three):
        k = reachable(three)
        text, _, peak = self.traced(lambda: dot_export(k))
        assert peak <= 2.3 * len(text)


class TestFixpoints:
    UNIVERSE = frozenset(range(6))

    def test_lfp_identity(self):
        assert lfp_iterate(lambda z: z, self.UNIVERSE) == frozenset()

    def test_lfp_singleton_closure(self):
        assert lfp_iterate(lambda z: z | {0}, self.UNIVERSE) == frozenset({0})

    def test_gfp_identity(self):
        assert gfp_iterate(lambda z: z, self.UNIVERSE) == self.UNIVERSE

    def test_gfp_removal(self):
        expected = self.UNIVERSE - {0}
        assert gfp_iterate(lambda z: z & expected, self.UNIVERSE) == expected

    def test_lfp_converges_within_bound(self):
        calls = 0

        def grow(z):
            nonlocal calls
            calls += 1
            return z | {min(self.UNIVERSE - z)} if z != self.UNIVERSE else z

        assert lfp_iterate(grow, self.UNIVERSE) == self.UNIVERSE
        assert calls <= len(self.UNIVERSE) + 1

    def test_non_monotone_transformer_detected(self):
        def flip(z):
            return frozenset({0}) if 0 not in z else frozenset({1})

        with pytest.raises(MonotonicityError):
            lfp_iterate(flip, self.UNIVERSE)

    def test_debug_spot_check_catches_non_monotone(self):
        def shrinker(z):
            return frozenset({0}) - z  # not monotone: the chain {} -> {0} -> {} falls

        with pytest.raises(MonotonicityError, match="lfp chain is not monotone"):
            lfp_iterate(shrinker, self.UNIVERSE)

    def test_error_texts(self):
        class Unequal(frozenset):
            """A set that equals nothing, so no chain of them converges."""

            __hash__ = frozenset.__hash__

            def __eq__(self, other):
                return False

        cases = [
            (lfp_iterate, lambda z: frozenset({0}) - z, "lfp chain is not monotone non-decreasing"),
            (gfp_iterate, lambda z: self.UNIVERSE - z, "gfp chain is not monotone non-increasing"),
            (lfp_iterate, Unequal, "lfp failed to converge within 7 iterations"),
            (gfp_iterate, Unequal, "gfp failed to converge within 7 iterations"),
        ]
        for iterate, transformer, text in cases:
            with pytest.raises(MonotonicityError) as caught:
                iterate(transformer, self.UNIVERSE)
            assert str(caught.value) == text


def test_duality_check_raises_under_python_O():
    """The debug AG/EF duality check is an explicit raise, so it survives
    ``python -O``; a child interpreter forces a mismatch by replacing
    ``lfp_iterate``, which computes the EF side."""
    script = textwrap.dedent(
        """
        import sys
        from insiderctl import ctl
        from insiderctl.airplane import build_airplane_model
        from insiderctl.formula import parse_formula

        k = ctl.reachable(build_airplane_model("baseline"))
        ctl.lfp_iterate = lambda transformer, universe, debug=False: frozenset()
        try:
            ctl.eval_ctl(k, parse_formula("AG eve_ok"), debug=True)
        except ctl.MonotonicityError as exc:
            print(sys.flags.optimize, "MonotonicityError:", exc)
        """
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1 MonotonicityError: AG/EF duality violated\n"


class TestEvalCtl:
    def test_ef_attack_contains_initial_state(self, baseline_kripke):
        sat = eval_ctl(baseline_kripke, parse_formula("EF eve_violates"), debug=True)
        assert 0 in sat

    def test_ag_of_constant_true_is_everything(self, baseline_model):
        k = reachable(with_constants(baseline_model))
        assert eval_ctl(k, AG(Pred("always")), debug=True) == k.universe

    def test_ex_of_constant_false_is_empty(self, baseline_model):
        k = reachable(with_constants(baseline_model))
        assert eval_ctl(k, EX(Pred("never"))) == frozenset()

    def test_ax_vacuous_on_deadlock(self, baseline_model):
        deadlocked = with_constants(baseline_model._clone(policy_variants={"baseline": {}}))
        k = reachable(deadlocked)
        assert eval_ctl(k, AX(Pred("never"))) == k.universe
        assert check(k, AG(Pred("always"))).holds

    def test_unknown_predicate(self, baseline_kripke):
        with pytest.raises(ModelError, match="unknown predicate"):
            eval_ctl(baseline_kripke, Pred("no_such_predicate"))

    def test_parameterised_predicate_rejected_in_formula(self, baseline_kripke):
        with pytest.raises(ModelError, match="argument"):
            eval_ctl(baseline_kripke, Pred("global_ok"))

    def test_ef_matches_backward_closure_on_airplane(self, baseline_kripke, four_eyes_kripke):
        for k in (baseline_kripke, four_eyes_kripke):
            goal = eval_ctl(k, Pred("eve_violates"))
            assert eval_ctl(k, EF(Pred("eve_violates")), debug=True) == backward_closure(
                k.edges, goal
            )

    def test_ag_ef_duality_explicit(self, four_eyes_kripke):
        k = four_eyes_kripke
        ag = eval_ctl(k, AG(Pred("eve_ok")), debug=True)
        ef_not = eval_ctl(k, EF(Not(Pred("eve_ok"))))
        assert ag == k.universe - ef_not

    def test_ag_closed_under_successors(self, four_eyes_kripke):
        k = four_eyes_kripke
        ag = eval_ctl(k, AG(Pred("eve_ok")))
        for i in ag:
            for j in k.successors_of(i):
                assert j in ag

    def test_formula_predicates(self):
        f = parse_formula("AG (eve_ok | EX eve_violates)")
        assert formula_predicates(f) == {"eve_ok", "eve_violates"}


class TestCheck:
    def test_holds_iff_initial_states_satisfy(self, baseline_kripke):
        verdict = check(baseline_kripke, Pred("eve_violates"))
        assert verdict.holds == (baseline_kripke.init <= verdict.sat)
        assert verdict.holds  # Eve can already act in the initial state

    def test_ef_attack_holds(self, baseline_kripke):
        assert check(baseline_kripke, parse_formula("EF eve_violates"), debug=True).holds


class TestTraces:
    def test_witness_is_length_zero(self, baseline_kripke):
        path = extract_trace(baseline_kripke, parse_formula("EF eve_violates"), "witness")
        assert len(path) == 0
        assert path.states == (0,)

    def test_counterexample_without_assumption(self, four_eyes_kripke):
        path = extract_trace(four_eyes_kripke, parse_formula("AG eve_ok"), "counterexample")
        assert len(path) == 0
        assert path.states == (0,)

    def test_mode_shape_mismatch(self, baseline_kripke):
        with pytest.raises(TraceError):
            extract_trace(baseline_kripke, parse_formula("AG eve_ok"), "witness")
        with pytest.raises(TraceError):
            extract_trace(baseline_kripke, parse_formula("EF eve_ok"), "counterexample")

    def test_witness_of_failing_ef(self, baseline_model):
        k = reachable(with_constants(baseline_model))
        with pytest.raises(TraceError):
            extract_trace(k, EF(Pred("never")), "witness")

    @pytest.mark.parametrize(
        "formula, mode, text",
        [
            ("AG eve_ok", "witness", "witness extraction requires a formula of shape EF g"),
            ("EF never", "witness", "witness requested but the EF formula does not hold"),
            ("EF eve_ok", "counterexample",
             "counterexample extraction requires a formula of shape AG g"),
            ("AG always", "counterexample", "counterexample requested but the AG formula holds"),
            ("EF always", "proof", "unknown trace mode 'proof'"),
        ],
    )
    def test_error_texts(self, baseline_model, formula, mode, text):
        k = reachable(with_constants(baseline_model))
        with pytest.raises(TraceError) as caught:
            extract_trace(k, parse_formula(formula), mode)
        assert str(caught.value) == text

    def test_unconstrained_shortest_path_to_danger_is_two_steps(self, baseline_kripke):
        # the unconditional cabin move admits a direct cockpit->cabin step,
        # so the fatal state sits at breadth-first distance 2
        k = baseline_kripke
        path = shortest_path(k, frozenset({k.index[encode(k.model, aid_graph())]}))
        assert len(path) == 2

    def test_waypoint_path_through_the_intermediates(self, baseline_kripke):
        k = baseline_kripke
        path = shortest_path_via(
            k,
            [encode(k.model, aid_graph0()), encode(k.model, agid_graph()), encode(k.model, aid_graph())],
        )
        assert len(path) == 3
        assert [k.states[i] for i in path.states] == [
            encode(k.model, ex_graph()),
            encode(k.model, aid_graph0()),
            encode(k.model, agid_graph()),
            encode(k.model, aid_graph()),
        ]

    def test_missing_waypoint_gives_none(self, four_eyes_kripke):
        k = four_eyes_kripke
        assert shortest_path_via(k, [encode(k.model, aid_graph())]) is None


class TestDot:
    def test_stable_and_well_formed(self, four_eyes_kripke):
        a = dot_export(four_eyes_kripke)
        b = dot_export(four_eyes_kripke)
        assert a == b
        assert a.startswith("digraph kripke {")
        assert a.rstrip().endswith("}")
        assert 's0 [label="s0' in a and "penwidth=2" in a
        assert a.count(" -> ") == sum(len(e) for e in four_eyes_kripke.edges)

    def test_labels_need_no_escapes(self, four_eyes_kripke):
        """Every name and token of a model is a word, so no DOT label holds
        a quote or a backslash: a value like Graphviz's ``\\N"`` is
        rejected at its line, and a label escapes only its line breaks."""
        bad = '\\N"'
        with pytest.raises(ModelParseError) as caught:
            parse_model(textwrap.dedent(rf"""
                locations
                  a 0
                  b 1
                identities
                  Ann
                values
                  b = {bad}
                alphabets
                  b: {bad} y
                """))
        rule = f"value must be a word ([A-Za-z_][A-Za-z0-9_]* or digits): {bad!r}"
        assert [str(d) for d in caught.value.diagnostics] == [f"line 10: {rule}", f"line 8: {rule}"]
        lines = dot_export(four_eyes_kripke).splitlines()[3:-1]
        label = r'\[label="(?:[^"\\]|\\n)*"'
        for line in lines:
            assert re.fullmatch(rf"  s\d+( -> s\d+)? {label}( penwidth=2)?\];", line), line
