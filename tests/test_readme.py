"""The README's library quick start runs as written against the package, and its
API list is the package's public API."""

import pathlib
import re
import types

import vpwave

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["err"] < 1e-13
    assert namespace["on_grid"].shape == (1001,)
    assert namespace["top"].level == namespace["vp"].VPLevel(135, 2)


def test_readme_api_list_is_all_and_the_namespace():
    section = re.search(r"^## API\n(.*?)(?=^## )", README.read_text(encoding="utf-8"),
                        flags=re.S | re.M)
    listed = re.findall(r"^\* `(\w+)", section.group(1), flags=re.M)
    assert set(listed) == set(vpwave.__all__)
    assert len(listed) == len(set(listed)) and len(vpwave.__all__) == len(set(vpwave.__all__))
    bound = {name for name, obj in vars(vpwave).items()
             if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert bound == set(vpwave.__all__)
    star: dict = {}
    exec("from vpwave import *", star)
    assert set(star) - {"__builtins__"} == set(vpwave.__all__)
    for name in vpwave.__all__:
        obj = getattr(vpwave, name)
        # a class's own docstring, not an inherited one or the signature a dataclass writes
        doc = vars(obj).get("__doc__") if isinstance(obj, type) else obj.__doc__
        assert doc and doc.strip() and not doc.startswith(f"{name}("), name
