"""No module of iben reads another's private names.

A name that starts with an underscore belongs to the module that defines
it, so that the module can change it alone.  The ``ast`` scan looks at every
module under ``src/iben`` for an attribute read ``m._name`` where ``m`` is
bound to an iben module by an import, and for ``from .m import _name``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "iben"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, ``module._name``) for every private name of an iben module
    that ``tree`` imports or reads as an attribute of that module."""
    modules, found = {}, []  # local name -> the iben module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "iben"
                                                 or (node.module or "").startswith("iben.")):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, f"{node.module or '.'}.{alias.name}"))
                elif node.module in (None, "iben"):  # ``from . import autodiff as ad``
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("iben.") and alias.asname:
                    modules[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return found


def test_no_module_reads_another_modules_private_names():
    stray = [f"{path.name}:{line} reads {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in private_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert not stray, "a private name read across modules: " + ", ".join(stray)


@pytest.mark.parametrize("source, flagged", [
    ("from . import autodiff as ad\nad._nonzero_rows(x)\n", True),
    ("from . import autodiff as ad\nad._open_tape.get()\n", True),
    ("from . import bertfuse, corpus\ncorpus._field(x)\n", True),
    ("from .autodiff import _apply\n", True),
    ("from iben.autodiff import Tensor, _Product\n", True),
    ("import iben.model as m\nm._madds(s)\n", True),
    ("from . import autodiff as ad\nad.gru_sequence(x, w)\n", False),
    ("from . import autodiff as ad\nad.__name__\n", False),
    ("from .autodiff import Tensor\nTensor._x\n", False),
    ("def f(tape):\n    return tape._entries\n", False),
    ("import numpy as np\nnp._core\n", False),
])
def test_the_scan_finds_each_private_read(source, flagged):
    assert bool(private_reads(ast.parse(source))) == flagged
