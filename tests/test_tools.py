"""Smoke tests of the measurement scripts under ``tools/``."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")

# Nine code lines: the import, the three headers of the class and the
# functions, the return whose call spans two lines, the assignment whose
# string (not a docstring) spans two lines, and the last return.
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment after code

# A comment line.


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,
        over two lines."""
        return os.path.join("a",
                            "b")


def function():
    """Function docstring."""
    text = """not a
    docstring"""

    return text
'''


def test_counts_only_code_lines(tmp_path, capsys):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    assert code_lines.code_lines(tmp_path / "fixture.py") == 9
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "fixture 9\ntotal 9\n"


def test_main_prints_every_module_and_their_total(capsys):
    assert code_lines.main([]) == 0
    *modules, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    package = ROOT / "src" / "gols"
    assert sorted(name for name, _ in modules) == sorted(
        path.stem for path in package.glob("*.py"))
    counts = {name: int(count) for name, count in modules}
    assert counts == {path.stem: code_lines.code_lines(path)
                      for path in package.glob("*.py")}
    assert total == ["total", str(sum(counts.values()))]


# The most code lines `src/gols/` may hold (ROADMAP item 2).  A change
# that adds lines raises it and says in CHANGES.md which output or fix they
# buy.
CODE_CEILING = 1489


def test_code_lines_stay_under_the_ceiling(capsys):
    assert code_lines.main([]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total[0] == "total" and int(total[1]) <= CODE_CEILING


def test_round_counts_pin_every_count(monkeypatch, capsys):
    # The rounds, requests, metric and net calls of the benchmark's jobs at
    # seed 7.  A change that moves one on purpose updates it here and says
    # why.
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # restores sys.path after
    assert _load("round_counts").main([]) == 0
    assert capsys.readouterr().out.splitlines() == [
        # GS and B-GOLS ask no step beyond the cap, and I-GOLS stops at it.
        "train-exact  grid 1381 rounds / 16844 requests  probe 0 rounds / 0 requests  "
        "metrics 32 calls / 416 points  net 1413 calls / 17260 points  "
        "table 0 calls / 0 points / 0 table rows / 0 gathered rows",
        "train-inexact  grid 796 rounds / 6100 requests  probe 0 rounds / 0 requests  "
        "metrics 64 calls / 1008 points  net 860 calls / 7108 points  "
        "table 0 calls / 0 points / 0 table rows / 0 gathered rows",
        # Batches 10, 30 and 50 of 12 repeats take the table path (3 x 1212
        # evaluations), batch 1 and the direction search the stacked one.
        "scan-study  grid 0 rounds / 0 requests  probe 45 rounds / 46 requests  "
        "metrics 0 calls / 0 points  net 47 calls / 1259 points  "
        "table 30 calls / 3636 points / 27270 table rows / 109080 gathered rows",
    ]


def test_kernel_us_times_both_kernels_at_each_point_count(monkeypatch, capsys):
    # A smoke test: two calls a repeat, and no bound on the times.
    monkeypatch.setattr(sys, "path", list(sys.path))  # restored after
    assert _load("kernel_us").main([str(ROOT), "2"]) == 0
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert title.startswith("Network(4-3-3-3) at batch 10, best of 5 x 2 calls")
    assert header.split() == ["points", "backprop_us", "forward_us"]
    assert [int(row.split()[0]) for row in rows] == [1, 12, 20, 64]
    assert all(float(us) > 0.0 for row in rows for us in row.split()[1:])
