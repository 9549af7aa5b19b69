"""The package's settable values, counted and pinned.

A settable value is a parameter with a default in a public function or
method, or a field with a default in a public dataclass, anywhere in
``src/spikefit/*.py``. Public means the name does not start with an
underscore, so ``__init__`` and ``__post_init__`` do not count. A change
that adds or removes a knob updates the pin in its own diff.
"""

import ast
from pathlib import Path

import spikefit

SETTABLE_VALUES = 68


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _settable(body) -> int:
    n = 0
    for node in body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            n += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                n += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
            n += _settable(node.body)
    return n


def test_settable_value_count_is_pinned():
    root = Path(spikefit.__file__).parent
    total = sum(_settable(ast.parse(path.read_text()).body)
                for path in sorted(root.glob("*.py")))
    assert total == SETTABLE_VALUES
