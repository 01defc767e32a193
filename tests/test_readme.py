import re
from pathlib import Path

import numpy as np

from gols import effective_alpha_max

README = Path(__file__).parent.parent / "README.md"


def test_python_blocks_run_and_keep_the_step_cap(tmp_path, monkeypatch):
    # The blocks run in order in one namespace, as a reader pastes them, in
    # a temporary working directory that keeps their files out of the
    # checkout; any exception fails the test.
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # The single-step snippet bounds its step as steepest descent must.
    assert namespace["out"].alpha <= effective_alpha_max(np.linalg.norm(namespace["g"]))
