"""Child Python processes that find the package from any working directory."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args, cwd=None):
    """Run ``python *args`` in a child process.  The child finds the package
    through an absolute src path, so this works whether or not insiderctl is
    installed and from any working directory (the repo root by default)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=ROOT if cwd is None else cwd,
        env=env,
    )
