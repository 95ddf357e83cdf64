"""Smoke test: each narrative script in demos/ runs to the end and says what it should."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

EXPECTED = {
    "enumeration_tour.py": ["oxplow  (agrees with the geometric walk)",
                            "cantor         n=1..12: 1,1 1,2 2,1 1,3"],
    "tiling_tour.py": ["tiling:ramp:1+1x1+1:parity-diag  (ok)",
                       "1 2 4 5 3 13 6 14 7 16 15 10 17 8"],
    "transform_tour.py": ["1 1 2 1 2 3 1 2 3 4 1 2 3 4 5",
                          "111 112 121 113 122 211 114 123 212 131",
                          "segment-shift-angle k=1: A004739: match (100 terms, offset 1)"],
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    for line in EXPECTED[name]:
        assert line in out
    assert "BROKEN" not in out and "mismatch" not in out


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(EXPECTED)
