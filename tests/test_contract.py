"""The callers that no change to the package may break: the benchmark worker
(``perfbench/worker.py``) and the acceptance criteria.  Each is parsed, not
run or edited, and every ``vortexlab`` name it imports or references must
exist."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ["perfbench/worker.py", "tests/test_acceptance.py"]


def _dotted(node):
    """'a.b.c' for the attribute chain a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _catches_import_error(handler):
    """Whether an ``except`` clause catches ImportError (a bare one does)."""
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(getattr(t, "id", None) in ("ImportError", "ModuleNotFoundError") for t in types)


def _guarded(tree):
    """The ids of the nodes inside a ``try`` that catches ImportError: optional imports."""
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(map(_catches_import_error, node.handlers)):
            guarded |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
    return guarded


def vortexlab_names(source):
    """Every dotted ``vortexlab`` name that `source` imports or references:
    imports, attribute chains from ``vortexlab`` or from a name imported from
    it, and chains through a local alias of one (``mild = vortexlab.mild_solver``)."""
    tree = ast.parse(source)
    guarded, bound, names = _guarded(tree), {}, set()
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vortexlab"):
            for a in node.names:
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
                names.add(f"{node.module}.{a.name}")
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "vortexlab":
                    names.add(a.name)
                    bound[a.asname or "vortexlab"] = a.name if a.asname else "vortexlab"
    for node in ast.walk(tree):  # aliases assigned from a vortexlab chain
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and (chain := _dotted(node.value)) and chain.split(".")[0] in bound):
            head, _, rest = chain.partition(".")
            bound[node.targets[0].id] = ".".join(filter(None, [bound[head], rest]))
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, (ast.Attribute, ast.Name)) else None
        if chain and id(node) not in guarded and chain.split(".")[0] in bound:
            head, _, rest = chain.partition(".")
            names.add(".".join(filter(None, [bound[head], rest])))
    return names


def resolves(dotted):
    """Whether `dotted` names an existing module or attribute."""
    parts = dotted.split(".")
    try:
        obj = importlib.import_module(parts[0])
        for i, part in enumerate(parts[1:], start=2):
            obj = (getattr(obj, part) if hasattr(obj, part)
                   else importlib.import_module(".".join(parts[:i])))
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("caller", CALLERS)
def test_every_vortexlab_name_a_caller_uses_exists(caller):
    names = vortexlab_names((ROOT / caller).read_text())
    assert len(names) > 10  # the parse found the caller's imports
    assert sorted(n for n in names if not resolves(n)) == []


def test_a_deleted_name_is_reported():
    source = """
import vortexlab.fields
from vortexlab.bb_lab import refinement_study, family_ratio_report
from vortexlab.fields import Grid
try:
    from vortexlab import _optional_backend
except ImportError:
    _optional_backend = None
fields = vortexlab.fields
refinement_study(fields.derivative, Grid.wavenumber, vortexlab.fields.gradient)
"""
    names = vortexlab_names(source)
    assert "vortexlab._optional_backend" not in names  # guarded: optional
    missing = sorted(n for n in names if not resolves(n))
    assert missing == ["vortexlab.bb_lab.family_ratio_report", "vortexlab.fields.Grid.wavenumber",
                       "vortexlab.fields.derivative"]
    assert resolves("vortexlab.fields.gradient") and resolves("vortexlab.bb_lab.refinement_study")
