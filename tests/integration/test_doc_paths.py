"""Every backticked ``repro.…`` dotted path in the docs must resolve.

README.md, DESIGN.md and docs/*.md name modules, classes and functions
as `` `repro.pkg.module.name` ``.  A path resolves when its longest
importable module prefix imports and the remaining parts are attributes
of it, so a renamed or deleted module shows up here instead of in a
reader's ImportError.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md"] + sorted(
    (ROOT / "docs").glob("*.md")
)
PATH_RE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")


def documented_paths():
    paths = {}
    for doc in DOCS:
        for match in PATH_RE.finditer(doc.read_text()):
            paths.setdefault(match.group(1), doc.relative_to(ROOT).as_posix())
    return sorted(paths.items())


def resolve(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_docs_name_some_paths():
    assert len(documented_paths()) > 20


@pytest.mark.parametrize(
    "dotted,doc", documented_paths(), ids=[p for p, _ in documented_paths()]
)
def test_documented_path_resolves(dotted, doc):
    try:
        resolve(dotted)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{doc} names `{dotted}`, which does not resolve: {exc}")
