"""Rules of the code base that no single module's tests hold."""

import ast
from pathlib import Path

import pytest

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


def _reads_sveb(node) -> bool:
    """Whether `node` builds a ByteReader that checks the SVEB magic, by name or as store.MAGIC."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ByteReader"
            and any(getattr(a, "id", getattr(a, "attr", None)) == "MAGIC" for a in node.args))


_SVEB_READS = {
    "ByteReader(f, path, MAGIC, FORMAT_VERSION, 'SVEB')": True,
    "store.ByteReader(f, p, store.MAGIC, 1, 'SVEB')": True,
    "ByteReader(f, path, PIPELINE_MAGIC, PIPELINE_VERSION, 'pipeline')": False,
    "MAGIC + header": False,
}


@pytest.mark.parametrize("source, reads", _SVEB_READS.items())
def test_sveb_read_detector(source, reads):
    assert any(map(_reads_sveb, ast.walk(ast.parse(source)))) == reads


def test_embedding_file_is_the_only_sveb_reader():
    """Every SVEB read goes through store.EmbeddingFile, so a second reader of the format,
    with its own blocks, checks and messages, cannot come back."""
    readers = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:  # each top-level definition
            if any(map(_reads_sveb, ast.walk(node))):
                readers.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    assert readers == {"store.EmbeddingFile"}
