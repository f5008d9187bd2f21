"""Every demo script runs to completion against the package in src/."""

import pytest

from conftest import ROOT, launch

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = launch([str(demo)], cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
