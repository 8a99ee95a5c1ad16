import ast
import csv
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
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


SRC_LINE_CEILING = 2451   # may only come down


def test_src_stays_within_its_line_budget():
    # counted as perfbench/worker.py's module_lines counts src.lines
    lines = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))
    assert lines <= SRC_LINE_CEILING, f"src/ is {lines} lines, over {SRC_LINE_CEILING}"


# What no command reaches, each entry with the reason it stays in src/.
UNREACHED_BY_COMMANDS = {
    "tensor.grad_check": "A1 checks every taped kernel's gradient with it",
    "engine.loss_discriminator": "A2 pins c_d's exact value with it and A4 trains on it",
    "tensor.Tape.__len__": "perfbench's tracer counts the nodes of each tape a step closes",
}

# What no command sets, each keyword parameter with the reason it stays in src/.
SET_ONLY_BY_TESTS = {
    "engine.unroll_teacher_forced(include_outputs)":
        "A1's unroll case checks the gradient through the behavior's softmax columns",
}

_TINY = ["vocab_size=4", "seq_len=10", "copy_pattern_len=2", "copy_count=8", "val_count=4",
         "gen_hidden=6", "gen_embed=4", "disc_hidden=6", "batch_n=4", "val_every=2",
         "lr=0.001"]
_GATE_OPENS = "lr=0.03"   # the tiny pf run's generator gate opens at step 1


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


def _src_keyword_defaults() -> dict[int, tuple[str, dict[str, object]]]:
    """Every function and method defined at module or class level under
    src/, keyed by the id of its code object, with its name and the
    defaults of its keyword parameters; the dataclass-made dunders, whose
    file is <string>, are left out."""
    found = {}
    for name in MODULES:
        module = importlib.import_module(name)
        stem = Path(module.__file__).stem
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != name:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                if isinstance(member, property):
                    fns = [member.fget, member.fset, member.fdel]
                else:
                    fns = [inspect.unwrap(getattr(member, "__func__", member))]
                for fn in filter(inspect.isfunction, fns):
                    if fn.__code__.co_filename == "<string>":
                        continue
                    defaults = {p.name: p.default
                                for p in inspect.signature(fn).parameters.values()
                                if p.default is not p.empty}
                    found[id(fn.__code__)] = (f"{stem}.{fn.__qualname__}", defaults)
    return found


def _train(tmp: Path, name: str, *sets: str, steps: str = "4", preset=()) -> list[str]:
    args = ["train", *preset, "--out", str(tmp / name), "--seed", "3", "--steps", steps]
    return args + [a for pair in _TINY + list(sets) for a in ("--set", pair)]


def _commands(tmp: Path) -> list[list[str]]:
    """Tiny runs of every command, mode and model option."""
    corpus = tmp / "corpus.txt"
    corpus.write_text("the cat sat on the mat\n" * 20)
    config = tmp / "tiny.cfg"   # a file spells out its mode: the tf alias is --mode's alone
    config.write_text("\n".join(_TINY + ["mode=teacher_forcing"]) + "\n")
    pf, tf = str(tmp / "pf" / "final.ckpt"), str(tmp / "tf" / "final.ckpt")
    return [
        _train(tmp, "tf", "mode=teacher_forcing"),
        _train(tmp, "ss", "mode=scheduled_sampling", steps="3"),
        _train(tmp, "pf", _GATE_OPENS, steps="3"),
        _train(tmp, "raster", "raster_width=4", "raster_height=4", "raster_count=8",
               preset=("--preset", "desk-raster")),
        _train(tmp, "corpus", "task=corpus", f"corpus_path={corpus}", "gen_layers=2",
               "include_outputs_in_behavior=true", "use_ct=true"),
        ["train", "--config", str(config), "--out", str(tmp / "config"), "--seed", "3",
         "--steps", "2"],
        ["train", "--resume", pf, "--steps", "4", "--out", str(tmp / "pf")],
        ["train", "--resume", str(tmp / "ss" / "final.ckpt"), "--steps", "4",
         "--out", str(tmp / "ss-resumed")],
        ["sample", pf, "--count", "2"],
        ["sample", str(tmp / "corpus" / "final.ckpt"), "--count", "2", "--bias", "1"],
        ["diagnose", tf, "--count", "4", "--out", str(tmp / "diag")],
        ["inspect-checkpoint", pf],
    ]


def _run_commands(tmp: Path, capsys, profile) -> None:
    """Every command of :func:`_commands`, each exiting 0, under ``profile``."""
    _parser.cache_clear()   # so that this process builds the parser again, under the profiler
    commands, before = _commands(tmp), sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(args) for args in commands]
    finally:
        sys.setprofile(before)
    assert codes == [0] * len(commands), capsys.readouterr().err


def test_every_src_function_is_reached(tmp_path, capsys):
    # "no API that only tests call": every def under src/ runs in some
    # command, or UNREACHED_BY_COMMANDS says why it stays
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno,
                         frame.f_code.co_name))

    _run_commands(tmp_path, capsys, profile)
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


def test_every_keyword_parameter_is_set_by_a_command(tmp_path, capsys):
    # no switch that only tests flip: a keyword parameter of a def some
    # command calls is bound, in some call, to an object that is not its
    # default, or SET_ONLY_BY_TESTS says why it stays
    keywords = _src_keyword_defaults()
    called, set_ = set(), set()

    def profile(frame, event, arg):
        key = id(frame.f_code)
        if event == "call" and key in keywords:
            called.add(key)
            bound = frame.f_locals
            set_.update((key, p) for p, default in keywords[key][1].items()
                        if bound[p] is not default)

    _run_commands(tmp_path, capsys, profile)
    unset = {f"{keywords[key][0]}({p})" for key in called for p in keywords[key][1]
             if (key, p) not in set_}
    unlisted = sorted(unset - SET_ONLY_BY_TESTS.keys())
    stale = sorted(SET_ONLY_BY_TESTS.keys() - unset)
    assert not unlisted and not stale, (
        f"no command sets these, nor does SET_ONLY_BY_TESTS list them: {unlisted}; "
        f"SET_ONLY_BY_TESTS lists these, which a command sets or calls not, or src/ "
        f"lacks: {stale}")


_DEV_MODE = """
import gc, json, sys
from profforce.cli import main
broken = []   # errors in finalizers: a file left open is a ResourceWarning there
sys.unraisablehook = lambda u: broken.append(f"{u.exc_type.__name__}: {u.exc_value}")
codes = [main(args) for args in json.loads(sys.argv[1])]
gc.collect()
print(json.dumps([codes, broken]))
"""


def test_commands_run_clean_in_dev_mode(tmp_path):
    # under python -X dev -W error a stray warning raises, and a file
    # handle left open is reported as it is collected
    pf = str(tmp_path / "pf" / "final.ckpt")
    commands = [_train(tmp_path, "pf", _GATE_OPENS, steps="3"),
                ["train", "--resume", pf, "--steps", "4", "--out", str(tmp_path / "pf")],
                ["sample", pf, "--count", "2"],
                ["diagnose", pf, "--count", "4", "--out", str(tmp_path / "diag")],
                ["inspect-checkpoint", pf]]
    out = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", _DEV_MODE,
                          json.dumps(commands)], env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    codes, broken = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * len(commands) and broken == [], out.stderr
    with open(tmp_path / "pf" / "curves.csv", newline="") as f:
        assert "1" in [row["gate_gen"] for row in csv.DictReader(f)]
