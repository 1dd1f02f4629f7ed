"""One round of scripts/mul_bench.py with this checkout on both sides: every
operand pair is timed and gives the same product digest on each side."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def mul_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("mul_bench")


def test_one_round_times_every_operand_with_equal_digests(mul_bench, capsys):
    assert mul_bench.main([str(ROOT), str(ROOT), "--rounds", "1", "--reps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "rounds=1 reps=1"
    names = [f"box {box} p p" for box in mul_bench.BOXES]
    names += ["exp_i 31x31 by 3x3", "exp_i 3x3 by 31x31"]
    assert [line.split(":")[0] for line in lines[3::2]] == names
    assert all(line.startswith("  sha256 A = B = ") for line in lines[4::2])


def test_summary_flags_a_digest_that_differs(mul_bench):
    run = {"box 4 p p": {"times": [2e-5, 3e-5], "sha256": "ab"}}
    other = {"box 4 p p": {"times": [1e-5], "sha256": "cd"}}
    lines, same = mul_bench.summarize([run], [other])
    assert not same
    assert lines == ["box 4 p p: A 25.0 us, B 10.0 us, B / A 0.400, B lower in 1 of 1 rounds",
                     "  sha256 differs: A ['ab'], B ['cd']"]
