import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import profforce
from profforce.checkpoint import MAGIC

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


SRC_LINE_CEILING = 2479   # may only come down


def test_src_stays_within_its_line_budget():
    # counted as perfbench/worker.py's module_lines counts src.lines
    src = Path(profforce.__file__).parent
    lines = sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
    assert lines <= SRC_LINE_CEILING, f"src/ is {lines} lines, over {SRC_LINE_CEILING}"
