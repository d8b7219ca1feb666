"""README's library sketch runs as written, so it cannot drift from the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.M | re.S)


def test_readme_has_one_library_sketch():
    assert len(python_blocks()) == 1


def test_library_sketch_runs():
    namespace = {}
    exec(compile(python_blocks()[0], str(README), "exec"), namespace)
    p, traj = namespace["p"], namespace["traj"]
    assert p.variant.value == "swlme" and traj.failure is None
    assert traj.steps[0, 0] == 0.0 and traj.steps[-1, 0] == 1.0
