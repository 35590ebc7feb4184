import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"


def test_every_command_prints_its_checked_in_output():
    spec = importlib.util.spec_from_file_location("franklin_golden", GOLDEN)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    # the corpus covers help, refusals and every command; scripts/golden.py --write renews it
    assert golden.mismatches() == []
