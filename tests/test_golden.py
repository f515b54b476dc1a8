"""Byte-for-byte pins of the engine's output: state order, state indices,
edge order, DOT rendering and traces.

The output files under ``data/golden`` (all but ``diagnostics.txt``, which
``test_diagnostics.py`` pins) were written by the engine as it stood
before states were keyed by tuples built from rule deltas (today the flat
state vectors of :func:`insiderctl.model.encode`); any later change to
exploration has to reproduce them exactly.
``dot_sha256.json`` holds the SHA-256 of ``dot_export(reachable(m))`` for the
baseline airplane, for ``genmodels.random_model(seed)``, seeds 0-59, and for
the models of ``AIRPLANES``: the baseline with one and two extra cabin
passengers and four_eyes with and without ``foe:cockpit:put:Eve``.  These
last four were written by the engine that still built every state's
snapshot during exploration.
"""

import hashlib
import json
from pathlib import Path

import pytest

from genmodels import random_model, with_passengers
from insiderctl.airplane import build_airplane_model, cockpit_foe_control
from insiderctl.cli import run_command
from insiderctl.ctl import dot_export, reachable

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
MODEL = str(DATA / "airplane.model")
DIGESTS = json.loads((GOLDEN / "dot_sha256.json").read_text(encoding="utf-8"))


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, code, name",
    [
        (["witness", MODEL, "EF eve_violates"], 0, "witness_baseline.out"),
        (
            ["check", MODEL, "AG eve_ok", "--variant", "four_eyes", "--trace"],
            1,
            "check_four_eyes.out",
        ),
        (
            ["check", MODEL, "AG eve_ok", "--variant", "four_eyes", "--trace",
             "--assume", "foe:cockpit:put:Eve"],
            0,
            "check_four_eyes_assumed.out",
        ),
    ],
    ids=["witness-baseline", "check-four-eyes", "check-four-eyes-assumed"],
)
def test_paper_query_stdout(capsys, argv, code, name):
    assert run_command(argv) == code
    assert capsys.readouterr().out == golden(name)


def test_four_eyes_dot(capsys, tmp_path):
    out = tmp_path / "four_eyes.dot"
    assert run_command(["reach", MODEL, "--variant", "four_eyes", "--dot", str(out)]) == 0
    assert capsys.readouterr().out == f"states: 21\nedges: 342\ndot written to {out}\n"
    assert out.read_text(encoding="utf-8") == golden("four_eyes.dot")


def _digest(model) -> str:
    return hashlib.sha256(dot_export(reachable(model)).encode("utf-8")).hexdigest()


def test_baseline_dot_digest():
    assert _digest(build_airplane_model("baseline")) == DIGESTS["airplane/baseline"]


AIRPLANES = {
    "airplane/baseline+1pax": lambda: with_passengers(build_airplane_model("baseline"), 1),
    "airplane/baseline+2pax": lambda: with_passengers(build_airplane_model("baseline"), 2),
    "airplane/four_eyes": lambda: build_airplane_model("four_eyes"),
    "airplane/four_eyes+foe": lambda: build_airplane_model("four_eyes").with_assumptions(
        [cockpit_foe_control()]
    ),
}


@pytest.mark.parametrize("name", AIRPLANES)
def test_airplane_dot_digest(name):
    assert _digest(AIRPLANES[name]()) == DIGESTS[name]


@pytest.mark.parametrize("seed", range(60))
def test_random_model_dot_digest(seed):
    assert _digest(random_model(seed)) == DIGESTS[f"random_model/{seed}"]
