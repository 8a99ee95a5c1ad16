import ast
import contextlib
import csv
import functools
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
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


SRC_LINE_CEILING = 2069   # may only come down


def test_src_stays_within_its_line_budget():
    # counted as perfbench/worker.py's module_lines counts src.lines
    lines = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))
    assert lines <= SRC_LINE_CEILING, f"src/ is {lines} lines, over {SRC_LINE_CEILING}"


# What no command runs, each entry with the reason it stays in src/: a
# whole def as module.qualname, one statement of it as "module.qualname: <its
# first line>".
NOT_RUN_BY_COMMANDS = {
    "trainer.Trainer._restore: log.warning(\"resuming where the checkpoint's environment or "
    "state keys differ \"":
        "a resume in another environment or of a checkpoint with stray state keys; "
        "TestResumeUnderAnotherThreadCount runs it",
}

# What no command sets, each keyword parameter with the reason it stays in src/.
SET_ONLY_BY_TESTS: dict[str, str] = {}

# What commands give one way only, each bool parameter with the reason it stays a switch.
GIVEN_ONE_WAY_BY_COMMANDS: dict[str, str] = {}

# What every command binds to one constant, each closure parameter with the reason it stays.
CONSTANT_IN_EVERY_COMMAND: dict[str, str] = {}


def _closure_defaults() -> list[str]:
    """Every ``def`` or ``lambda`` nested in a function under src/ that
    declares a parameter default, as ``module.qualname``."""
    found = []

    def visit(node, name, in_def):
        for child in ast.iter_child_nodes(node):
            fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            inner = f"{name}.{getattr(child, 'name', '<lambda>')}" if fn or isinstance(
                child, ast.ClassDef) else name
            if fn and in_def and (child.args.defaults or any(child.args.kw_defaults)):
                found.append(inner)
            visit(child, inner, in_def or fn)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, False)
    return found


def test_no_closure_declares_a_parameter_default():
    # the keyword ratchet below sees only module- and class-level defs: a
    # closure takes every argument from its one caller instead
    assert _closure_defaults() == []


# Values are checked once, where they enter: the config, the CLI flags, the
# checkpoint and the corpus file.  Code behind that boundary trusts its
# caller; each raise it keeps is listed, as "module.qualname: <its line>", with
# what it guards that the boundary cannot, or that numpy would not report.
BOUNDARY = ("config", "checkpoint", "cli", "trainer")
RAISES_BEHIND_THE_BOUNDARY = {
    'optim.adam_step: raise ValueError("params, grads and optimizer state must align")':
        "zip would silently drop the parameters past the shortest list",
    'optim.adam_step: raise ValueError(f"gradient shape {g.shape} != parameter shape '
    '{p.shape}")':
        "a gradient of another shape can broadcast into the update",
}


def _raises_behind_the_boundary() -> Counter:
    """Every ``raise`` under src/ outside the BOUNDARY modules, keyed as
    RAISES_BEHIND_THE_BOUNDARY keys it, with how often each key occurs."""
    found = Counter()

    def visit(node, name, lines):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                found[f"{name}: {lines[child.lineno - 1].strip()}"] += 1
            visit(child, f"{name}.{child.name}" if isinstance(child, _DEFS) else name, lines)

    for path in sorted(SRC.glob("*.py")):
        if path.stem not in BOUNDARY:
            text = path.read_text()
            visit(ast.parse(text), path.stem, text.splitlines())
    return found


def test_only_the_boundary_raises():
    found = _raises_behind_the_boundary()
    unlisted = sorted(k for k, n in found.items() if n > 1 or k not in RAISES_BEHIND_THE_BOUNDARY)
    stale = sorted(RAISES_BEHIND_THE_BOUNDARY.keys() - found.keys())
    assert not unlisted and not stale, (
        f"raised behind the boundary, and not listed once in RAISES_BEHIND_THE_BOUNDARY: "
        f"{unlisted}; listed there, but src/ lacks them: {stale}")


_TINY = ["vocab_size=4", "seq_len=10", "copy_pattern_len=2", "copy_count=8", "val_count=4",
         "gen_hidden=6", "gen_embed=4", "disc_hidden=6", "batch_n=4", "val_every=2",
         "lr=0.001"]
_GATE_OPENS = "lr=0.01"   # the tiny pf run's generator gate opens at step 5 of 6
# one row per batch: at step 1 the discriminator is sure (accuracy 1.0), so
# it stops learning while its judgement reaches the generator
_SURE = ("batch_n=1", "lr=0.06")


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _src_statements() -> dict[str, list]:
    """Every def under src/, nested ones too, named by its module and the
    classes and functions around it, with the statements of its body.

    A statement is ``(key, lines, inner)``: the first line of its source,
    the (file, line) pairs any one of which runs it (all its lines, or for a
    compound statement those of its header, from its first decorator) and
    the statements of its own blocks.  A first line the def holds twice is
    keyed after the header of the statement around it.  Exempt, so left
    out: docstrings, ``raise``, ``except`` bodies, an ``if`` body that ends
    in ``raise``, and the bodies of nested defs, which are defs of their own.
    """
    defs = {}

    def head(s, text):   # text: the file's lines, as UTF-8, where col_offset counts
        return text[s.lineno - 1][s.col_offset:].decode().strip()

    def own_heads(node, text):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                yield head(child, text)
            if not isinstance(child, _DEFS):
                yield from own_heads(child, text)

    def block(stmts, around, seen, text, file):
        out = []
        for s in stmts:
            if isinstance(s, ast.Raise) or (isinstance(s, ast.Expr)
                                            and isinstance(s.value, ast.Constant)
                                            and isinstance(s.value.value, str)):
                continue
            first, last, inner, key = s.lineno, s.end_lineno, [], head(s, text)
            if isinstance(s, _DEFS):
                first = min([s.lineno] + [d.lineno for d in s.decorator_list])
                last = max(s.lineno, s.body[0].lineno - 1)
            elif hasattr(s, "body"):
                last = max(s.lineno, s.body[0].lineno - 1)
                bodies = [getattr(s, k, []) for k in ("body", "orelse", "finalbody")]
                if isinstance(s, ast.If) and isinstance(s.body[-1], ast.Raise):
                    bodies = bodies[1:]
                inner = [st for b in bodies for st in block(b, key, seen, text, file)]
            if seen[key] > 1:
                key = f"{around} {key}"
            out.append((key, {(file, n) for n in range(first, last + 1)}, inner))
        return out

    def visit(node, prefix, text, file):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, _DEFS):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    seen = Counter(own_heads(child, text))
                    defs[name] = block(child.body, "", seen, text, file)
            visit(child, name, text, file)

    for path in SRC.glob("*.py"):
        text = path.read_bytes()
        visit(ast.parse(text), path.stem, text.splitlines(), os.path.realpath(path))
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


def _is_default(value, default) -> bool:
    """Whether a binding leaves its parameter as its default: a number, text,
    flag or None equal to it and of its exact type, anything else the very
    default object."""
    if type(value) in (int, float, str, bool, type(None)):
        return type(value) is type(default) and value == default
    return value is default


def _fingerprint(value):
    """What a binding is, for telling constants apart: a number, text, flag
    or None by its type and repr, an ndarray of at most one element by its
    dtype, shape and bytes; None for anything else, which counts as varying."""
    if type(value) in (int, float, str, bool, type(None)):
        return type(value).__name__, repr(value)
    if isinstance(value, np.ndarray) and value.size <= 1:
        return value.dtype.str, value.shape, value.tobytes()
    return None


def _train(tmp: Path, name: str, *sets: str, steps: str = "4", preset=()) -> list[str]:
    args = ["train", *preset, "--out", str(tmp / name), "--seed", "3", "--steps", steps]
    return args + [a for pair in _TINY + list(sets) for a in ("--set", pair)]


def _commands(tmp: Path) -> list[list[str]]:
    """Tiny runs of every command, mode and model option."""
    corpus = tmp / "corpus.txt"
    corpus.write_text("the cat sat on the mat\n" * 20)
    config = tmp / "tiny.cfg"   # a file spells out its mode: the tf alias is --mode's alone
    config.write_text("\n".join(["# a tiny tf run"] + _TINY + ["mode=teacher_forcing"]) + "\n")
    pf, tf = str(tmp / "pf" / "final.ckpt"), str(tmp / "tf" / "final.ckpt")
    raster = ("raster_width=4", "raster_height=4", "raster_count=8")
    return [
        _train(tmp, "tf", "mode=teacher_forcing", "temperature=0.7"),   # diagnose's temperature
        _train(tmp, "ss", "mode=scheduled_sampling", "ss_ramp_steps=none", steps="3"),
        _train(tmp, "pf", _GATE_OPENS, "include_outputs_in_behavior=true", steps="6"),
        _train(tmp, "sure", *_SURE, steps="2"),
        _train(tmp, "raster", *raster, preset=("--preset", "desk-raster")),
        _train(tmp, "cross", *raster, "raster_family=cross", steps="1",
               preset=("--preset", "desk-raster")),
        _train(tmp, "corpus", "task=corpus", f"corpus_path={corpus}", "gen_layers=2",
               "include_outputs_in_behavior=true", "use_ct=true"),
        # 23 validation symbols make no chunk of 30
        _train(tmp, "no-val", "task=corpus", f"corpus_path={corpus}", "seq_len=30", steps="1"),
        ["train", "--config", str(config), "--out", str(tmp / "config"), "--seed", "3",
         "--steps", "2"],
        ["train", "--resume", pf, "--steps", "7", "--out", str(tmp / "pf")],
        ["train", "--resume", str(tmp / "ss" / "final.ckpt"), "--steps", "4",
         "--out", str(tmp / "ss-resumed")],
        ["sample", pf, "--count", "2"],
        ["sample", str(tmp / "corpus" / "final.ckpt"), "--count", "2", "--bias", "1"],
        ["sample", tf, "--count", "2", "--out", str(tmp / "sample.txt")],
        ["diagnose", tf, "--count", "4", "--out", str(tmp / "diag")],
        # build_datasets checks the file's symbols against the checkpoint's
        ["diagnose", str(tmp / "corpus" / "final.ckpt"), "--count", "2", "--timestep", "3"],
        ["inspect-checkpoint", pf],
    ]


@dataclass
class CommandTrace:
    lines: set          # (file, line) of every line run under src/
    called: set         # ids of the code objects of _src_keyword_defaults a command calls
    set_: set           # (code id, parameter) some call binds to other than its default
    keywords: dict      # _src_keyword_defaults()
    bools: dict         # "module.qualname(parameter)": the bools calls bind it to
    closures: dict      # "module.qualname(parameter)" of a nested def: its bindings' _fingerprint


@pytest.fixture(scope="module")
def command_trace(tmp_path_factory) -> CommandTrace:
    """Every command of :func:`_commands`, each exiting 0, run once under
    ``sys.settrace``, which reports each line and call as it runs."""
    tmp, keywords = tmp_path_factory.mktemp("commands"), _src_keyword_defaults()
    trace = CommandTrace(set(), set(), set(), keywords, {}, {})
    real = functools.cache(os.path.realpath)

    @functools.cache
    def params(code):   # a src/ code object's name and parameters, closures' too; else None
        if not real(code.co_filename).startswith(str(SRC) + os.sep):
            return None
        names = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
        qualname = getattr(code, "co_qualname", code.co_name)   # Python 3.10: the name alone
        return f"{Path(code.co_filename).stem}.{qualname}", names

    def line(frame, event, arg):
        if event == "line":
            trace.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        key = id(frame.f_code)
        if key in keywords:
            trace.called.add(key)
            bound = frame.f_locals
            trace.set_.update((key, p) for p, default in keywords[key][1].items()
                              if not _is_default(bound[p], default))
        own = params(frame.f_code)
        if own is None:
            return None
        name, names = own
        if names:
            bound = frame.f_locals
            for p in names:
                if bound[p] is True or bound[p] is False:
                    trace.bools.setdefault(f"{name}({p})", set()).add(bound[p])
                if "<locals>" in name:
                    trace.closures.setdefault(f"{name}({p})", set()).add(_fingerprint(bound[p]))
        return line

    _parser.cache_clear()   # so that this process builds the parser again, traced
    commands, err = _commands(tmp), io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        sys.settrace(call)
        try:
            codes = [main(args) for args in commands]
        finally:
            sys.settrace(None)
    assert codes == [0] * len(commands), err.getvalue()
    trace.lines = {(real(file), n) for file, n in trace.lines}
    return trace


def _not_run(stmts: list, ran: set, name: str) -> list[str]:
    """The outermost statements of ``stmts`` that did not run, as keys."""
    out = []
    for head, lines, inner in stmts:
        out += _not_run(inner, ran, name) if lines & ran else [f"{name}: {head}"]
    return out


def test_every_src_statement_runs(command_trace):
    # "no API that only tests call", statement by statement: every statement
    # of a def under src/ runs in some command, or NOT_RUN_BY_COMMANDS says why
    # it stays; a def none of whose statements runs is named whole
    ran, not_run = command_trace.lines, set()
    for name, stmts in _src_statements().items():
        whole = stmts and not any(lines & ran for _, lines, _ in stmts)
        not_run.update([name] if whole else _not_run(stmts, ran, name))
    unlisted = sorted(not_run - NOT_RUN_BY_COMMANDS.keys())
    stale = sorted(NOT_RUN_BY_COMMANDS.keys() - not_run)
    assert not unlisted and not stale, (
        f"no command runs these, nor does NOT_RUN_BY_COMMANDS list them: {unlisted}; "
        f"NOT_RUN_BY_COMMANDS lists these, which a command runs or src/ lacks: {stale}")


def test_every_keyword_parameter_is_set_by_a_command(command_trace):
    # no switch that only tests flip: a keyword parameter of a def some
    # command calls is bound, in some call, to other than its default (see
    # _is_default), or SET_ONLY_BY_TESTS says why it stays
    keywords = command_trace.keywords
    unset = {f"{keywords[key][0]}({p})" for key in command_trace.called
             for p in keywords[key][1] if (key, p) not in command_trace.set_}
    unlisted = sorted(unset - SET_ONLY_BY_TESTS.keys())
    stale = sorted(SET_ONLY_BY_TESTS.keys() - unset)
    assert not unlisted and not stale, (
        f"no command sets these, nor does SET_ONLY_BY_TESTS list them: {unlisted}; "
        f"SET_ONLY_BY_TESTS lists these, which a command sets or calls not, or src/ "
        f"lacks: {stale}")


def test_every_bool_switch_is_given_both_ways_by_a_command(command_trace):
    # no switch that only tests flip, closures' included: a parameter some
    # command binds to a bool is bound to True and to False, or
    # GIVEN_ONE_WAY_BY_COMMANDS says why it stays
    one_way = {name for name, values in command_trace.bools.items() if len(values) < 2}
    unlisted = sorted(one_way - GIVEN_ONE_WAY_BY_COMMANDS.keys())
    stale = sorted(GIVEN_ONE_WAY_BY_COMMANDS.keys() - one_way)
    assert not unlisted and not stale, (
        f"commands give these one way only, nor does GIVEN_ONE_WAY_BY_COMMANDS list them: "
        f"{unlisted}; GIVEN_ONE_WAY_BY_COMMANDS lists these, which commands give both "
        f"ways or never: {stale}")


def test_no_closure_parameter_is_one_constant_in_every_command(command_trace):
    # no input that only tests vary: a parameter of a nested def that every
    # call binds to one constant (see _fingerprint) belongs in the closure's
    # body, or CONSTANT_IN_EVERY_COMMAND says why it stays
    constant = {name for name, seen in command_trace.closures.items()
                if len(seen) == 1 and None not in seen}
    unlisted = sorted(constant - CONSTANT_IN_EVERY_COMMAND.keys())
    stale = sorted(CONSTANT_IN_EVERY_COMMAND.keys() - constant)
    assert not unlisted and not stale, (
        f"every command binds these to one constant, nor does CONSTANT_IN_EVERY_COMMAND "
        f"list them: {unlisted}; CONSTANT_IN_EVERY_COMMAND lists these, which commands "
        f"vary or never bind: {stale}")


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
    commands = _commands(tmp_path)
    out = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", _DEV_MODE,
                          json.dumps(commands)], env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    codes, broken = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * len(commands) and broken == [], out.stderr
    gates = {}   # each run's (gate_gen, gate_disc) per step, shown when a gate never opens
    for run in ("pf", "sure"):
        with open(tmp_path / run / "curves.csv", newline="") as f:
            gates[run] = [(row["gate_gen"], row["gate_disc"]) for row in csv.DictReader(f)]
    assert "1" in [gen for gen, _ in gates["pf"]], gates
    # a step that runs the discriminator's backward with learns=False
    assert ("1", "0") in gates["sure"], gates
