"""Every file iben writes goes through ``errors.open_replacing``.

A writer that fails halfway must leave the old file byte-identical and no
temporary file behind.  The ``ast`` scan keeps any other write path out of
``src/iben``: a call of ``open`` in a writing mode, or of
``Path.write_text`` or ``Path.write_bytes``, anywhere but in
``open_replacing`` itself.
"""

import ast
import contextlib
import json
import os
import stat
from pathlib import Path

import pytest

import iben.cli as cli
from iben import errors
from iben.cli import main

from test_cli import make_config, write_dataset, write_vectors

SRC = Path(__file__).resolve().parents[1] / "src" / "iben"


def _writes(call: ast.Call) -> bool:
    """Whether a call opens a file to write: ``open`` in a mode with w, a, x
    or +, or in a mode that is not a literal, or ``write_text``/``write_bytes``."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wax+"))


def writing_calls(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, innermost enclosing function) for every call in ``tree`` that
    opens a file to write."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and _writes(child):
                found.append((child.lineno, function))
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_only_open_replacing_opens_a_file_to_write():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for line, function in writing_calls(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, function) != ("errors.py", "open_replacing"):
                stray.append(f"{path.name}:{line} in {function}")
    assert not stray, "a write outside errors.open_replacing: " + ", ".join(stray)


@pytest.mark.parametrize("source, flagged", [
    ("def f(p):\n    open(p, 'w')\n", True),
    ("def f(p):\n    open(p, mode='ab')\n", True),
    ("def f(p):\n    open(p, 'r+b')\n", True),
    ("def f(p, m):\n    open(p, m)\n", True),
    ("def f(p):\n    p.write_text('x')\n", True),
    ("def f(p):\n    open(p, 'rb')\n", False),
    ("def f(p):\n    open(p, encoding='utf-8')\n", False),
    ("open('x', 'w')\n", True),
])
def test_the_scan_finds_each_writing_call(source, flagged):
    assert bool(writing_calls(ast.parse(source))) == flagged


class _HalfWritten:
    """A binary file that writes half of the first bytes it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")


@pytest.fixture
def fail_writing(monkeypatch):
    """Make ``cli``'s writes to files of the given name fail halfway."""
    names = set()
    real = errors.open_replacing

    @contextlib.contextmanager
    def open_replacing(path):
        with real(path) as fh:
            yield _HalfWritten(fh) if Path(path).name in names else fh

    monkeypatch.setattr(cli, "open_replacing", open_replacing)
    return names


@pytest.fixture
def inputs(tmp_path):
    data = write_dataset(tmp_path / "data.csv")
    tokens = tmp_path / "tokens.tsv"
    assert main(["preprocess", "--data", str(data), "--variant", "edited",
                 "--max-len", "6", "--out", str(tokens)]) == 0
    features = tmp_path / "features.hs"
    assert main(["pseudo-encode", "--tokens", str(tokens), "--layers", "4",
                 "--hidden", "4", "--seed", "1", "--out", str(features)]) == 0
    return {"data": data, "features": features, "vectors": write_vectors(tmp_path / "vec.txt")}


def assert_kept(directory: Path, kept: dict, listing: list) -> None:
    """The files ``kept`` names hold their old bytes, and ``directory`` holds
    ``listing`` alone: no temporary file is left."""
    for name, data in kept.items():
        assert (directory / name).read_bytes() == data, name
    assert sorted(p.name for p in directory.iterdir()) == listing


@pytest.mark.parametrize("jsonl", [False, True])
def test_a_token_file_that_fails_halfway_keeps_the_old_one(inputs, tmp_path, fail_writing,
                                                            capsys, jsonl):
    out = tmp_path / "tokens" / "out.txt"
    out.parent.mkdir()
    out.write_bytes(b"old tokens\n")
    fail_writing.add(out.name)
    argv = ["preprocess", "--data", str(inputs["data"]), "--variant", "edited",
            "--out", str(out)] + (["--jsonl"] if jsonl else [])
    assert main(argv) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert_kept(out.parent, {"out.txt": b"old tokens\n"}, ["out.txt"])


@pytest.mark.parametrize("name", ["history.csv", "config.resolved.json"])
def test_a_training_record_that_fails_halfway_keeps_the_old_one(inputs, tmp_path,
                                                                 fail_writing, capsys, name):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    old = {"history.csv": b"epoch,train_loss\n1,0.5\n", "config.resolved.json": b"{}\n"}
    for file, data in old.items():
        (out_dir / file).write_bytes(data)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(make_config(inputs, out_dir)), encoding="utf-8")
    fail_writing.add(name)
    assert main(["train", "--config", str(config)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert_kept(out_dir, {name: old[name]},
                ["config.resolved.json", "history.csv", "model.ckpt"])


def test_predictions_that_fail_halfway_keep_the_old_file(inputs, tmp_path, fail_writing,
                                                          capsys):
    out_dir = tmp_path / "run"
    config = tmp_path / "run.json"
    config.write_text(json.dumps(make_config(inputs, out_dir)), encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 0
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / "p.csv").write_bytes(b"id,y,yhat\nold,0,0\n")
    fail_writing.add("p.csv")
    assert main(["evaluate", "--checkpoint", str(out_dir / "model.ckpt"),
                 "--data", str(inputs["data"]), "--out", str(preds / "p.csv")]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert_kept(preds, {"p.csv": b"id,y,yhat\nold,0,0\n"}, ["p.csv"])


@pytest.mark.parametrize("where", ["missing_dir", "directory", "pipe"])
def test_a_target_that_cannot_be_replaced_is_named(inputs, tmp_path, capsys, where):
    """A missing directory, or a target that is no regular file, exits 2
    naming the target; the target stays as it was and no file is added."""
    target = tmp_path / ("missing" if where == "missing_dir" else "") / "out.tsv"
    if where == "directory":
        target.mkdir()
    elif where == "pipe":
        os.mkfifo(target)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["preprocess", "--data", str(inputs["data"]), "--variant", "edited",
                 "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{target}" in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert where != "pipe" or stat.S_ISFIFO(os.stat(target).st_mode)
