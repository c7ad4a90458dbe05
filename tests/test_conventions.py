"""Rules of the code base that no single module's tests hold."""

import ast
from pathlib import Path

import svkit

SRC = Path(svkit.__file__).parent
TESTS = Path(__file__).parent


def _block_constants() -> set[tuple[str, str]]:
    """(module, name) of each module-level ``*_BLOCK`` or ``*_CELLS`` constant of svkit."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found |= {(path.stem, t.id) for t in targets
                          if isinstance(t, ast.Name) and t.id.endswith(("_BLOCK", "_CELLS"))}
    return found


def _patched() -> set[tuple[str, str]]:
    """(module, name) of each ``setattr(module, "NAME", ...)`` or ``patch.object(module,
    "NAME", ...)`` call in the tests."""
    found = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("setattr", "object") and len(node.args) >= 2
                    and isinstance(node.args[0], ast.Name) and isinstance(node.args[1], ast.Constant)):
                found.add((node.args[0].id, node.args[1].value))
    return found


def test_every_block_size_is_patched_by_a_test():
    """A block size is a module constant, not an option, so a test that patches it to small
    values is what shows that the result does not depend on it."""
    constants = _block_constants()
    assert {("store", "_RECORD_BLOCK"), ("store", "_FIELD_BLOCK"), ("backend", "APPLY_BLOCK")} <= constants
    assert not constants - _patched(), sorted(constants - _patched())
