import ast
import importlib
import inspect
import os
import pkgutil
import sys
from pathlib import Path

import pytest

import profforce
from profforce.checkpoint import MAGIC
from profforce.cli import _parser, main

SRC = Path(profforce.__file__).parent
MODULES = ["profforce"] + [f"profforce.{m.name}"
                           for m in pkgutil.iter_modules(profforce.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names what the module lacks: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined_in_its_module(name):
    # one import path per name: a function or class is exported only where it is defined
    module = importlib.import_module(name)
    exported = {n: getattr(module, n) for n in getattr(module, "__all__", ())}
    foreign = [n for n, obj in exported.items()
               if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ != name]
    assert foreign == [], f"{name}.__all__ re-exports names defined elsewhere: {foreign}"


def test_readme_quotes_checkpoint_format():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert f"`{MAGIC.decode('ascii')}`" in readme


SRC_LINE_CEILING = 2477   # may only come down


def test_src_stays_within_its_line_budget():
    # counted as perfbench/worker.py's module_lines counts src.lines
    lines = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))
    assert lines <= SRC_LINE_CEILING, f"src/ is {lines} lines, over {SRC_LINE_CEILING}"


# What no command reaches, each entry with the reason it stays in src/.
UNREACHED_BY_COMMANDS = {
    "tensor.grad_check": "A1 checks every taped kernel's gradient with it",
    "tensor.grad_check.value": "grad_check's probe of the loss; A1 runs it",
    "engine.loss_discriminator": "A2 pins c_d's exact value with it and A4 trains on it",
    "tensor.Tape.__len__": "perfbench's tracer counts the nodes of each tape a step closes",
}

_TINY = ["vocab_size=4", "seq_len=10", "copy_pattern_len=2", "copy_count=8", "val_count=4",
         "gen_hidden=6", "gen_embed=4", "disc_hidden=6", "batch_n=4", "val_every=2",
         "lr=0.001"]


def _src_definitions() -> dict[tuple[str, int], str]:
    """Every def under src/, nested ones too, named by its module and the
    classes and functions around it and keyed by its file and first line,
    counted from its first decorator as a code object counts it."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[(path, first)] = name
            visit(child, path, name)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), os.path.realpath(path), path.stem)
    return defs


def _commands(tmp: Path) -> list[list[str]]:
    """Tiny runs of every command, mode and model option."""
    def train(name, *sets, steps="4", preset=()):
        args = ["train", *preset, "--out", str(tmp / name), "--seed", "3", "--steps", steps]
        return args + [a for pair in _TINY + list(sets) for a in ("--set", pair)]

    corpus = tmp / "corpus.txt"
    corpus.write_text("the cat sat on the mat\n" * 20)
    pf, tf = str(tmp / "pf" / "final.ckpt"), str(tmp / "tf" / "final.ckpt")
    return [
        train("tf", "mode=teacher_forcing"),
        train("ss", "mode=scheduled_sampling", steps="3"),
        train("pf", steps="3"),
        train("raster", "raster_width=4", "raster_height=4", "raster_count=8",
              preset=("--preset", "desk-raster")),
        train("corpus", "task=corpus", f"corpus_path={corpus}", "gen_layers=2",
              "include_outputs_in_behavior=true", "use_ct=true"),
        ["train", "--resume", pf, "--steps", "4", "--out", str(tmp / "pf")],
        ["train", "--resume", str(tmp / "ss" / "final.ckpt"), "--steps", "4",
         "--out", str(tmp / "ss-resumed")],
        ["sample", pf, "--count", "2"],
        ["sample", str(tmp / "corpus" / "final.ckpt"), "--count", "2", "--bias", "1"],
        ["diagnose", tf, "--count", "4", "--out", str(tmp / "diag")],
        ["inspect-checkpoint", pf],
    ]


def test_every_src_function_is_reached(tmp_path, capsys):
    # "no API that only tests call": every def under src/ runs in some
    # command, or UNREACHED_BY_COMMANDS says why it stays
    _parser.cache_clear()   # so that this process builds the parser again, under the profiler
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno,
                         frame.f_code.co_name))

    commands, before = _commands(tmp_path), sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(args) for args in commands]
    finally:
        sys.setprofile(before)
    assert codes == [0] * len(commands), capsys.readouterr().err
    # <module>, <lambda> and comprehensions are no defs; the dataclass
    # dunders are made from text, with the file name <string>
    reached = {(os.path.realpath(file), line) for file, line, name in reached
               if not name.startswith("<")}
    defs = _src_definitions()
    unreached = {name for key, name in defs.items() if key not in reached}
    unlisted = sorted(unreached - UNREACHED_BY_COMMANDS.keys())
    stale = sorted(UNREACHED_BY_COMMANDS.keys() - unreached)
    assert not unlisted and not stale, (
        f"no command reaches these, nor does UNREACHED_BY_COMMANDS list them: {unlisted}; "
        f"UNREACHED_BY_COMMANDS lists these, which a command reaches or src/ lacks: {stale}")
