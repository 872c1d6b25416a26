"""Smoke test: every narrative script under demos/ runs to the end."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# Lines a demo must print, beyond printing something at all.
EXPECTED = {"02_weak_coupling_radius": "exactly 1/12: True"}


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert EXPECTED.get(path.stem, "") in out
