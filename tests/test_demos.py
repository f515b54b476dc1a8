"""Each demo script runs to completion as its own process."""

import pytest

from children import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_four_demos_are_found():
    assert [demo.name for demo in DEMOS] == [
        "attack_discovery.py",
        "door_lock_demo.py",
        "four_eyes_proof.py",
        "risk_tradeoff.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs(demo, tmp_path):
    result = run_python(str(demo), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
