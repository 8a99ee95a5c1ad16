import importlib
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


def test_readme_quotes_checkpoint_format():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert f"`{MAGIC.decode('ascii')}`" in readme


SRC_LINE_CEILING = 2508   # may only come down


def test_src_stays_within_its_line_budget():
    # counted as perfbench/worker.py's module_lines counts src.lines
    src = Path(profforce.__file__).parent
    lines = sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
    assert lines <= SRC_LINE_CEILING, f"src/ is {lines} lines, over {SRC_LINE_CEILING}"
