"""Every ``:func:``, ``:meth:`` and ``:class:`` role in the package's
docstrings names an object that exists."""

import importlib
import re
from pathlib import Path

import esum_lab

ROLE = re.compile(r":(?:func|meth|class):`~?([^`]*)`")


def _resolves(module, target):
    """A dotted ``esum_lab.`` path, or a path inside ``module``; a bare name
    also resolves as a method of a class of ``module``."""
    if target.startswith("esum_lab."):
        _, name, *names = target.split(".")
        module = importlib.import_module(f"esum_lab.{name}")
    else:
        names = target.split(".")
    obj = module
    for name in names:
        if not hasattr(obj, name):
            break
        obj = getattr(obj, name)
    else:
        return True
    return len(names) == 1 and any(
        isinstance(cls, type) and cls.__module__ == module.__name__ and hasattr(cls, target)
        for cls in vars(module).values())


def test_docstring_references_resolve():
    found, dangling = 0, []
    for path in sorted(Path(esum_lab.__file__).parent.glob("*.py")):
        module = importlib.import_module("esum_lab" if path.stem == "__init__"
                                         else f"esum_lab.{path.stem}")
        targets = ROLE.findall(path.read_text())
        found += len(targets)
        dangling += [f"{path.name}: {t}" for t in targets if not _resolves(module, t)]
    assert found and dangling == []
