"""The showcase script runs end to end and prints its worked answers."""

import importlib.util
import re
from pathlib import Path

SHOWCASE = Path(__file__).resolve().parents[1] / "scripts" / "run_showcase.py"


def test_showcase_runs_and_prints_known_facts(capsys):
    spec = importlib.util.spec_from_file_location("run_showcase", SHOWCASE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert "dims (3, 3, 3): 37 classes" in out
    assert re.search(r"state B: .* -> entangled$", out, re.MULTILINE)
