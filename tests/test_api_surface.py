"""The package's settable values, counted and pinned.

A settable value is a parameter with a default in a public function or
method, or a field with a default in a public dataclass, anywhere in
``src/spikefit/*.py``. Public means the name does not start with an
underscore, so ``__init__`` and ``__post_init__`` do not count. A change
that adds or removes a knob updates the pin in its own diff.

The CLI is pinned too: a run's settings come from its config file alone, so
each subcommand takes only the config path and the output directory. And no
module reads a record's spike frames, only its spike counts.
"""

import ast
from pathlib import Path

import spikefit
from spikefit import cli

SETTABLE_VALUES = 50


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


def test_every_subcommand_takes_only_config_and_out():
    subparsers = next(a for a in cli._build_parser()._actions
                      if a.dest == "command").choices
    assert sorted(subparsers) == sorted(cli._COMMANDS)
    for name, parser in subparsers.items():
        options = sorted(o for a in parser._actions for o in a.option_strings)
        assert options == ["--config", "--help", "--out", "-h"], name


def _spike_frame_reads(source: str) -> list[int]:
    """Lines that read an attribute named ``spikes``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "spikes"]


def test_no_module_reads_spike_frames():
    # the package reads spike counts; the replayed frames are left to the
    # benchmark's checks and tracer until they are deleted
    root = Path(spikefit.__file__).parent
    reads = {path.name: lines for path in sorted(root.glob("*.py"))
             if (lines := _spike_frame_reads(path.read_text()))}
    assert reads == {}


def test_frame_read_checker_flags_an_attribute():
    assert _spike_frame_reads("spikes = 1\nn = rec.spikes[0].sum()\n") == [2]
