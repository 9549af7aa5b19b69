"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spikefit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    assert _unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]


# the private names each module takes from another module of the package,
# by import or through a module alias; a run of the IF recurrence is set up
# in snn alone, and the IF neuron, its unrolled window and that window's
# reverse live there beside its step, so calibrate takes the drive, the
# window's rates and their gradients from snn; snn and calibrate apply
# linear layers with the analog path's own step, so every path computes a
# layer's output with the same float32 bits
PRIVATE_IMPORTS = {
    "calibrate.py": {"ann": ["_apply_linear"],
                     "snn": ["_drive", "_rate", "_split_stack", "_window_grads",
                             "_window_run"]},
    "cli.py": {"calibrate": ["_align_terms", "_record_losses", "_teacher_pass"]},
    "diagnostics.py": {"ann": ["_qcfs_into"], "snn": ["_spike_count_into"]},
    "snn.py": {"ann": ["_apply_embedding", "_apply_linear"]},
}


def _private_imports(source: str) -> dict[str, list[str]]:
    tree = ast.parse(source)
    taken: dict[str, set] = {}
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    taken.setdefault(node.module, set()).add(alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            taken.setdefault(aliases[node.value.id], set()).add(node.attr)
    return {module: sorted(names) for module, names in taken.items()}


def test_private_imports_are_pinned():
    got = {path.name: names for path in MODULES
           if (names := _private_imports(path.read_text()))}
    assert got == PRIVATE_IMPORTS


def test_private_import_checker_sees_both_forms():
    source = ("from .snn import _rate, simulate\nfrom . import autodiff as ad\n"
              "from .ann import mlp\nad._window(ad.backward, _rate)\n")
    assert _private_imports(source) == {"autodiff": ["_window"], "snn": ["_rate"]}


def _names(source: str) -> set[str]:
    """Every name a module binds, reads or imports, and every attribute it reads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_only_snn_names_the_surrogate_window():
    # the IF neuron is written once: its window lives beside if_step
    window = {"SURROGATE_WINDOW", "_surrogate_window"}
    naming = sorted(path.name for path in sorted(SRC.glob("*.py"))
                    if window & _names(path.read_text()))
    assert naming == ["snn.py"]


def test_only_snn_names_the_neuron_step_and_its_reverse():
    # a new firing rule (a signed or burst neuron) edits these, so no other
    # module may reach past the window functions to them
    neuron = {"_if_steps", "_if_step_grads", "_if_param_grads", "_pre_reset_window"}
    naming = sorted(path.name for path in sorted(SRC.glob("*.py"))
                    if neuron & _names(path.read_text()))
    assert naming == ["snn.py"]


def test_name_checker_sees_imports_and_attributes():
    source = "from .snn import _surrogate_window as w\nx = snn.SURROGATE_WINDOW\n"
    assert {"_surrogate_window", "SURROGATE_WINDOW"} <= _names(source)
