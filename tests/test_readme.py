"""The README's library example runs as written, so that a public name it
uses cannot be removed without the README."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, f"{README.name} (## Library)", "exec"), namespace)
    assert namespace["verdict"] == "FalseAlarmRisk"
    assert namespace["levels"].shape == (2,)
