"""The README's library quick start runs as written against the package."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["err"] < 1e-13
    assert namespace["on_grid"].shape == (1001,)
    assert namespace["top"].level == namespace["vp"].VPLevel(135, 2)
