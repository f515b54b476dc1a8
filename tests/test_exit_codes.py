"""The exit-code contract under fuzzed input, in-process: 0 means holds, 1
means fails, 2 means error, and no input lets an exception escape
``run_command`` or reports 1 without a failing verdict on stdout."""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from insiderctl.cli import run_command

MODEL = str(Path(__file__).parent / "data" / "airplane.model")

TOKENS = st.sampled_from(
    ["AG ", "EF ", "EX ", "AX ", "AF ", "EG ", "E[", "A[", " U ", " R ", "]", "(", ")",
     "!", " & ", " | ", "eve_ok", "eve_violates", "global_ok", "nonsense", " "]
)
FORMULAS = st.one_of(st.lists(TOKENS, max_size=30).map("".join), st.text(max_size=40))
ASSUMPTIONS = st.one_of(
    st.sampled_from(["foe:cockpit:put:Eve", "foe:door:move:Bob", "foe:attic:put:Eve"]),
    st.lists(
        st.sampled_from(["foe", "cockpit", "cabin", "put", "move", "eval", "Eve", "Zed", ""]),
        max_size=5,
    ).map(":".join),
    st.text(max_size=20),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue()


def assert_contract(argv):
    code, stdout = run(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        lines = stdout.splitlines()
        assert any(
            line.endswith(": fails") or line.endswith("formula does not hold") for line in lines
        ), (argv, stdout)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzzed")


@settings(max_examples=100, deadline=None)
@given(
    data=st.binary(max_size=300),
    command=st.sampled_from(["check", "witness", "reach"]),
)
def test_random_model_bytes(model_dir, data, command):
    path = model_dir / "random.model"
    path.write_bytes(data)
    assert_contract([command, str(path)] + ([] if command == "reach" else ["EF eve_violates"]))


@settings(max_examples=150, deadline=None)
@given(formula=FORMULAS, command=st.sampled_from(["check", "witness"]))
def test_random_formula_text(formula, command):
    assert_contract([command, MODEL, formula])


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["check", "witness", "reach"]),
    cap=st.one_of(st.integers(-3, 400).map(str), st.text(max_size=6)),
    variant=st.one_of(st.sampled_from(["baseline", "four_eyes"]), st.text(max_size=8)),
    assume=st.lists(ASSUMPTIONS, max_size=2),
)
def test_random_flag_values(command, cap, variant, assume):
    formula = {"check": ["AG eve_ok"], "witness": ["EF eve_violates"], "reach": []}[command]
    argv = [command, MODEL, *formula, "--max-states", cap, "--variant", variant]
    for spec in assume:
        argv += ["--assume", spec]
    assert_contract(argv)
