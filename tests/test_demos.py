import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, tmp_path, monkeypatch):
    # A temporary working directory keeps anything a demo writes out of the
    # checkout; any exception the demo raises fails the test.
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
