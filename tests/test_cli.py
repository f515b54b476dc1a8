import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from children import run_python
from insiderctl.cli import run_command

DATA = Path(__file__).parent / "data"
MODEL = str(DATA / "airplane.model")


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_four_eyes_with_assumption_holds(self, capsys):
        code, out, err = run(
            capsys,
            "check", MODEL, "AG eve_ok",
            "--variant", "four_eyes",
            "--assume", "foe:cockpit:put:Eve",
        )
        assert code == 0
        assert "holds" in out

    def test_four_eyes_without_assumption_fails_with_counterexample(self, capsys):
        code, out, err = run(
            capsys, "check", MODEL, "AG eve_ok", "--variant", "four_eyes", "--trace"
        )
        assert code == 1
        assert "fails" in out
        assert "counterexample:" in out
        assert "s0" in out

    def test_baseline_attack_formula_holds(self, capsys):
        code, out, _ = run(capsys, "check", MODEL, "EF eve_violates")
        assert code == 0
        assert "states explored: 243" in out

    def test_unknown_predicate_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "check", MODEL, "AG nonsense")
        assert code == 2
        assert "unknown predicate" in err

    def test_parameterised_predicate_rejected(self, capsys):
        code, _, err = run(capsys, "check", MODEL, "AG global_ok")
        assert code == 2
        assert "parameterised" in err

    def test_bad_formula_syntax(self, capsys):
        code, _, err = run(capsys, "check", MODEL, "AG (eve_ok")
        assert code == 2
        assert "bad formula" in err

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, "check", "no_such.model", "AG eve_ok")
        assert code == 2
        assert "cannot read model" in err

    def test_unknown_variant(self, capsys):
        code, _, err = run(capsys, "check", MODEL, "AG eve_ok", "--variant", "strict")
        assert code == 2
        assert "no policy variant" in err

    def test_empty_variant(self, capsys):
        code, _, err = run(capsys, "check", MODEL, "AG eve_ok", "--variant", "")
        assert code == 2
        assert "model has no policy variant ''" in err

    def test_bad_assumption_syntax(self, capsys):
        code, _, err = run(capsys, "check", MODEL, "AG eve_ok", "--assume", "cockpit:put")
        assert code == 2
        assert "foe:LOC:ACTION:ID" in err

    def test_state_cap(self, capsys):
        code, _, err = run(capsys, "check", MODEL, "AG eve_ok", "--max-states", "5")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_state_cap_must_be_positive(self, capsys, cap):
        code, _, err = run(capsys, "check", MODEL, "AG eve_ok", "--max-states", cap)
        assert code == 2
        assert "--max-states: must be a positive integer" in err
        assert "exceeds the cap" not in err

    def test_usage_error_without_arguments(self, capsys):
        assert run_command([]) == 2
        capsys.readouterr()


class TestWitness:
    def test_attack_witness(self, capsys):
        code, out, _ = run(capsys, "witness", MODEL, "EF eve_violates")
        assert code == 0
        assert "witness (0 steps):" in out
        assert "cockpit:[Bob,Charly]" in out

    def test_non_ef_formula_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "witness", MODEL, "AG eve_ok")
        assert code == 2
        assert "EF" in err

    def test_unreachable_goal_fails(self, capsys):
        code, out, _ = run(
            capsys, "witness", MODEL, "EF eve_violates", "--variant", "four_eyes",
            "--assume", "foe:cockpit:put:Eve",
        )
        assert code == 1
        assert "does not hold" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", MODEL, "AG (EF eve_ok)"],
        ["reach", MODEL],
        # The goal is unreachable, so the search runs into the cap.
        ["witness", MODEL, "EF eve_violates", "--variant", "four_eyes",
         "--assume", "foe:cockpit:put:Eve"],
    ],
    ids=["check", "reach", "witness"],
)
def test_running_past_the_state_cap_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-states", "5")
    assert (code, out, err) == (2, "", "error: state space exceeds the cap of 5 states\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", MODEL, "AG eve_ok", "--assume", "cockpit:put"],
         "bad assumption 'cockpit:put'; expected foe:LOC:ACTION:ID"),
        (["check", MODEL, "AG eve_ok", "--assume", "foe:attic:put:Eve"],
         "assumption names unknown location 'attic'"),
        (["check", MODEL, "AG eve_ok", "--assume", "foe:cockpit:fly:Eve"],
         "unknown action 'fly'"),
        (["check", MODEL, "AG eve_ok", "--assume", "foe:cockpit:put:Zed"],
         "assumption references unknown identity 'Zed'"),
        (["check", MODEL, "AG eve_ok", "--variant", "strict"],
         "model has no policy variant 'strict'; available: baseline, four_eyes"),
        (["check", MODEL, "AG nonsense"], "unknown predicate name 'nonsense'"),
        (["check", MODEL, "AG global_ok"],
         "predicate 'global_ok' is parameterised and requires an identity argument"),
        (["witness", MODEL, "AG eve_ok"],
         "witness extraction requires a formula of shape EF g"),
    ],
    ids=[
        "assume-syntax", "assume-location", "assume-action", "assume-identity",
        "variant", "predicate", "parameterised", "witness-shape",
    ],
)
def test_user_error_text(capsys, argv, message):
    """Each user error exits 2 with one ``error:`` line and no stdout; the
    text comes from the library check that owns the data."""
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


class TestReach:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "reach", MODEL, "--variant", "four_eyes")
        assert code == 0
        assert "states: 21" in out

    def test_dot_output(self, capsys, tmp_path):
        target = tmp_path / "space.dot"
        code, out, _ = run(
            capsys, "reach", MODEL, "--variant", "four_eyes", "--dot", str(target)
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("digraph kripke {")
        assert "move Alice cabin->cockpit" in text


class TestRisk:
    def test_recommends_one_person_on_zero_insider_risk(self, capsys):
        code, out, _ = run(capsys, "risk", "--p0", "0", "--p1", "0", "--p2", "0.1")
        assert code == 0
        assert "recommend one_person" in out

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "risk", "--p0", "2", "--p1", "0", "--p2", "0.1")
        assert code == 2
        assert "[0, 1]" in err


class TestDoorSim:
    def test_trace_output(self, capsys):
        code, out, _ = run(capsys, "door-sim", str(DATA / "emergency_entry.door"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0\tpin_correct\tNormal\t0\t0\tclosed"
        assert lines[1].endswith("open")
        assert lines[2].endswith("open")
        assert lines[3].endswith("closed")

    def test_lockout_script(self, capsys):
        code, out, _ = run(capsys, "door-sim", str(DATA / "pilots_lock_out.door"))
        assert code == 0
        lines = out.splitlines()
        assert all(line.endswith("closed") for line in lines)
        assert lines[-2].split("\t")[2] == "Locked"
        assert lines[-1].split("\t")[2] == "Normal"

    def test_bad_script(self, capsys, tmp_path):
        bad = tmp_path / "bad.door"
        bad.write_text("jump 3\n")
        code, _, err = run(capsys, "door-sim", str(bad))
        assert code == 2
        assert "unknown event" in err


class TestScenario:
    def test_export_matches_golden(self, capsys):
        code, out, _ = run(capsys, "scenario", "export", "baseline")
        assert code == 0
        assert out == Path(MODEL).read_text()

    def test_export_four_eyes_only_differs_in_default(self, capsys):
        code, out, _ = run(capsys, "scenario", "export", "four_eyes")
        assert code == 0
        assert "default_policies four_eyes" in out


class TestLintSurface:
    def test_eval_only_policy_warns_on_load(self, capsys, tmp_path):
        text = Path(MODEL).read_text().replace(
            "policies baseline\n",
            "policies baseline\n  at cabin allow eval if true\n",
            1,  # not under "default_policies baseline", which takes no entries
        )
        path = tmp_path / "noisy.model"
        path.write_text(text)
        code, _, err = run(capsys, "reach", str(path))
        assert code == 0
        assert "eval" in err and "warning" in err


def run_module(*argv, cwd=None):
    """Run ``python -m insiderctl`` in a child process (see
    :func:`children.run_python`)."""
    return run_python("-m", "insiderctl", *argv, cwd=cwd)


def test_module_entry_point():
    result = run_module("risk", "--p0", "0", "--p1", "0", "--p2", "0.5")
    assert result.returncode == 0, result.stderr
    assert "two_person 0.5" in result.stdout


class TestExitCodeContract:
    """Inputs that once escaped as tracebacks with exit 1 ("check fails")
    exit 2 with a one-line diagnostic."""

    @staticmethod
    def assert_error(result, message):
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0], result.stderr

    def test_deeply_nested_formula(self):
        result = run_module("check", MODEL, "!" * 3000 + "eve_ok")
        self.assert_error(result, "nested too deeply")

    @pytest.mark.parametrize(
        "entry",
        [
            "policies base\n  at a allow move if has_cred([a b])",
            "policies base\n  at a allow move if requester_at([door])",
            "policies base\n  at a allow move if is_in(door, [a])",
            "predicates\n  p := inset(Eve, [a b])",
        ],
    )
    def test_bracketed_list_where_a_name_belongs(self, tmp_path, entry):
        path = tmp_path / "list.model"
        path.write_text(f"locations\n  a 0\n  door 1\nidentities\n  Eve\n{entry}\n")
        result = run_module("reach", str(path))
        self.assert_error(result, "model file is invalid")
        assert "  line 7: bad " in result.stderr and "internal error" not in result.stderr

    @pytest.mark.parametrize(
        "entry",
        [
            "policies base\n  at a allow move if has_cred())",
            "policies base\n  at a allow move if all_at_in(a, [Eve [])",
            "policies base\n  at a allow move if all_at_in(a, [Eve Zed])",
            "predicates\n  p := at(Eve, ))",
        ],
    )
    def test_malformed_argument_list(self, tmp_path, entry):
        path = tmp_path / "args.model"
        path.write_text(f"locations\n  a 0\n  door 1\nidentities\n  Eve\n{entry}\n")
        result = run_module("reach", str(path))
        self.assert_error(result, "model file is invalid")
        # A well-formed list naming an unknown identity fails the model's own check.
        lead = "policy condition references unknown identity 'Zed'" if "Zed" in entry else "bad "
        assert f"  line 7: {lead}" in result.stderr and "internal error" not in result.stderr

    def test_model_file_not_utf8(self, tmp_path):
        path = tmp_path / "utf16.model"
        path.write_bytes(b"\xff\xfe" + Path(MODEL).read_text().encode("utf-16-le"))
        self.assert_error(run_module("check", str(path), "AG eve_ok"), "cannot read model file")

    def test_door_script_not_utf8(self, tmp_path):
        path = tmp_path / "utf16.door"
        path.write_bytes(b"\xff\xfe" + "pin_ok\nwait 30\n".encode("utf-16-le"))
        result = run_module("door-sim", str(path))
        self.assert_error(result, "cannot read script")
        assert "internal error" not in result.stderr

    def test_location_id_not_ascii_digits(self, tmp_path):
        path = tmp_path / "superscript.model"
        path.write_text("locations\n  a \u00b2\n", encoding="utf-8")
        result = run_module("reach", str(path))
        self.assert_error(result, "model file is invalid")
        assert "  line 2: expected 'NAME ID'" in result.stderr
        assert "internal error" not in result.stderr

    @pytest.mark.parametrize("dt", ["nan", "inf", "1e400"])
    def test_door_script_non_finite_wait(self, tmp_path, dt):
        path = tmp_path / "forever.door"
        path.write_text(f"lock\nwait {dt}\nwait 400\n")
        result = run_module("door-sim", str(path))
        self.assert_error(result, "line 2: wait needs a positive, finite duration")
        assert result.stdout == ""

    def test_door_clock_overflow(self, tmp_path):
        path = tmp_path / "overflow.door"
        path.write_text("wait 1e308\nwait 1e308\npin_ok\nwait 31\n")
        result = run_module("door-sim", str(path))
        self.assert_error(result, "step 1 (wait 1e+308): door clock inf is not finite")
        assert result.stdout == ""

    def test_dot_file_not_writable(self, tmp_path):
        target = tmp_path / "missing" / "x.dot"
        result = run_module("reach", MODEL, "--dot", str(target))
        self.assert_error(result, "cannot write DOT file")
        assert result.stdout == "states: 243\nedges: 4212\n"


@pytest.mark.parametrize(
    "formula",
    [
        "!" * 800 + "eve_ok",
        "EX " * 800 + "eve_ok",
        "AG " * 800 + "eve_ok",
        "(" * 250 + "eve_ok" + ")" * 250,
        "E[eve_ok U " * 250 + "eve_ok" + "]" * 250,
    ],
    ids=["not", "EX", "AG", "parentheses", "EU"],
)
def test_nesting_capacity(tmp_path, formula):
    """Deep but reasonable nesting gets a verdict: parsing, labelling and
    printing each spend at most one Python frame per prefix level and a few
    per bracket level, well inside the default recursion limit."""
    path = tmp_path / "tiny.model"
    path.write_text("locations\n  a 0\nidentities\n  Eve\npredicates\n  eve_ok := true\n")
    result = run_module("check", str(path), formula)
    assert result.returncode in (0, 1), result.stderr
    assert result.stdout.rstrip().endswith((": holds", ": fails")), result.stdout[-200:]


# The argvs that run_command must answer the same way whether it runs first
# in a fresh process or after all the others: the paper's three queries,
# every help text and each kind of usage error.
SHARED_PARSER_ARGVS = [
    ["--help"],
    *([command, "--help"] for command in ("check", "reach", "witness", "risk", "door-sim")),
    ["scenario", "--help"],
    ["scenario", "export", "--help"],
    [],
    ["nonsense"],
    ["check", MODEL],
    ["reach", MODEL, "--bogus"],
    ["check", MODEL, "AG eve_ok", "--max-states", "0"],
    ["scenario", "export", "nope"],
    ["witness", MODEL, "EF eve_violates"],
    ["check", MODEL, "AG eve_ok", "--variant", "four_eyes", "--trace"],
    ["check", MODEL, "AG eve_ok", "--variant", "four_eyes", "--assume", "foe:cockpit:put:Eve"],
]


@pytest.fixture(scope="module")
def ran_every_argv():
    """Run every argv once in this process, so that each test below runs
    its argv after all the others; at another terminal width, so that no
    help layout is fixed when the parser is built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "40")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for argv in SHARED_PARSER_ARGVS:
                run_command(argv)


def _argv_id(argv) -> str:
    return " ".join("MODEL" if a == MODEL else a for a in argv) or "no arguments"


@pytest.mark.parametrize("argv", SHARED_PARSER_ARGVS, ids=_argv_id)
def test_in_process_run_matches_a_fresh_process(ran_every_argv, capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # the help layout follows the terminal width
    fresh = run_module(*argv)
    assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
