"""Every text output goes through store.write_text: the writers that call it
write the bytes of the earlier writers kept in oracles.py, `dcf-curve` and
`schedule` write the same bytes to stdout as to `--out`, and no other svkit
function opens a file for text writing or writes to stdout itself."""

import ast
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from svkit import augment, store
from svkit.chains import CHAINS
from svkit.cli import main
from svkit.errors import ContractError

# any text that UTF-8 can encode, separators and line ends included
TEXT = st.text(st.characters(exclude_categories=["Cs"]), max_size=8)
FILE_NAMES = TEXT.filter(lambda s: s not in ("", ".", "..") and "/" not in s and "\0" not in s)
POSITIVE = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def plans(draw):
    """A manifest and plan entries for it, gsm on keep16k included."""
    ids = draw(st.lists(FILE_NAMES, max_size=5, unique=True))
    utts = [augment.Utterance(i, draw(TEXT), draw(POSITIVE), draw(st.integers(1, 10**6))) for i in ids]
    entries = [augment.PlanEntry(i, draw(st.sampled_from(["gsm", "none"])), draw(st.sampled_from(CHAINS)),
                                 draw(POSITIVE)) for i in ids]
    return augment.UtteranceManifest(utts), entries


def _build(manifest, entries):
    """The plan, or None where the earlier renderer refused the entries
    (gsm on keep16k): building them must raise its message."""
    try:
        oracles.oracle_render_commands(SimpleNamespace(manifest=manifest, entries=entries), "/o")
    except ContractError as e:
        with pytest.raises(ContractError) as built:
            augment.AugmentPlan(manifest, entries)
        assert str(built.value) == str(e)
        return None
    return augment.AugmentPlan(manifest, entries)


def _same_bytes(tmp_path, write, oracle, obj):
    write(obj, tmp_path / "got.txt")
    oracle(obj, tmp_path / "want.txt")
    assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


@SETTINGS
@given(labels=st.dictionaries(TEXT, TEXT, max_size=5))
def test_labels_byte_equal(tmp_path, labels):
    _same_bytes(tmp_path, store.write_labels, oracles.oracle_write_labels, labels)


@SETTINGS
@given(plan=plans())
def test_manifest_and_plan_byte_equal(tmp_path, plan):
    _same_bytes(tmp_path, augment.write_manifest, oracles.oracle_write_manifest, plan[0])
    plan = _build(*plan)
    if plan is not None:
        _same_bytes(tmp_path, augment.write_plan, oracles.oracle_write_plan, plan)


@SETTINGS
@given(plan=plans())
def test_commands_byte_equal(tmp_path, plan):
    """The same bytes in the same file, for every plan that can be built."""
    plan = _build(*plan)
    if plan is None:
        return
    out = tmp_path / "out"
    outcomes = []
    for emit in (augment.emit_commands, oracles.oracle_emit_commands):
        shutil.rmtree(out, ignore_errors=True)
        path = emit(plan, out)
        outcomes.append((path, path.read_bytes()))
    assert outcomes[0] == outcomes[1]


def _command(name, tmp_path):
    if name == "schedule":
        return ["schedule"]
    (tmp_path / "trials.txt").write_text("e t1 target\ne t2 nontarget\ne t3 target\n")
    (tmp_path / "scores.tsv").write_text("e\tt1\t0.9\ne\tt2\t0.4\ne\tt3\t0.3\n")
    return ["dcf-curve", "--scores", str(tmp_path / "scores.tsv"), "--trials", str(tmp_path / "trials.txt"),
            "--points", "5", "--mark", "0.01"]


@pytest.mark.parametrize("name", ["dcf-curve", "schedule"])
def test_stdout_holds_the_bytes_of_out(tmp_path, capsys, name):
    argv = _command(name, tmp_path)
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr() == ("", "")
    want = (tmp_path / "out.csv").read_bytes()
    assert want.endswith(b"\n") and (b"# marked\n" in want) == (name == "dcf-curve")
    for out in ([], ["--out", ""]):  # an empty --out is stdout, as no --out is
        assert main([*argv, *out]) == 0
        got = capsys.readouterr()
        assert (got.out.encode("utf-8"), got.err) == (want, "")


_TEXT_WRITES = {  # source -> whether a node of it writes text
    'open(p, "w", encoding="utf-8")': True,
    'open(p, mode="a")': True,
    'open(p, "r+")': True,
    "open(p, mode)": True,  # a mode it cannot see might write
    "Path(p).write_text(t)": True,
    "p.write_text(t)": True,
    "store.write_text(p, lines)": False,
    "write_text(p, lines)": False,
    "sys.stdout.write(t)": True,
    "print(t, file=sys.stdout)": True,
    'open(p, "wb")': False,
    'wave.open(p, "wb")': False,
    'open(p, "r", encoding="utf-8")': False,
    "open(p)": False,
    "print(t, file=sys.stderr)": False,
}


def _writes_text(node) -> bool:
    """Whether `node` opens a file for text writing, writes text to a path, or names sys.stdout."""
    if isinstance(node, ast.Attribute):
        return node.attr == "stdout"
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", getattr(node.func, "attr", None))
    if name == "write_text":  # Path.write_text, not a call of store.write_text
        return isinstance(node.func, ast.Attribute) and getattr(node.func.value, "id", None) != "store"
    modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"] if name == "open" else []
    return any(
        not isinstance(m, ast.Constant) or ("b" not in m.value and bool(set(m.value) & set("wax+"))) for m in modes)


@pytest.mark.parametrize("source, writes", _TEXT_WRITES.items())
def test_text_write_detector(source, writes):
    assert any(map(_writes_text, ast.walk(ast.parse(source)))) == writes


def test_write_text_is_the_only_text_writer():
    """Every other function writes text through store.write_text, so no
    writer or command keeps its own open() or stdout-or-file branch."""
    writers = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner.split('.')[0]}.{node.name}"
        if _writes_text(node):
            writers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(Path(store.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.<module>")
    assert writers == {"store.write_text"}
