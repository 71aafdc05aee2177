"""The library's import path: numpy and the stdlib, never scipy.

scipy is a test oracle only. A fresh interpreter imports skece, checks that
no scipy module came with it, then blocks scipy (an import of it raises
ImportError from then on) and runs two CLI commands, so that a lazy import
on a command's path fails here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
import skece, skece.cli

loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
sys.modules["scipy"] = None
out = sys.argv[1]
codes = [
    skece.cli.main(["simulate", "--scenario", "C", "--seed", "1", "--out", out + "/traces"]),
    skece.cli.main(["randomness", "--scenario", "C", "--trials", "1", "--out", out + "/rnd.csv"]),
]
print(json.dumps({"scipy_modules": loaded, "exit_codes": codes}))
"""


def test_cli_runs_with_scipy_blocked(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"scipy_modules": [], "exit_codes": [0, 0]}
    assert (tmp_path / "traces" / "alice.csv").is_file()
    rows = (tmp_path / "rnd.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0].startswith("# skece randomness") and len(rows) == 3
