"""Corrupted input files: the CLI exits 2 with one line, or succeeds.

Bytes of a valid checkpoint, hidden-state container and vector table are
flipped, or the file is cut short.  `iben evaluate`/`train` must then
either succeed or exit 2 with a single `error:` line on stderr; nothing
may raise out of `main`.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iben.cli import main
from test_cli import make_config, write_dataset, write_vectors

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = write_dataset(root / "data.csv")
    vectors = write_vectors(root / "vectors.txt")
    tokens = root / "tokens.tsv"
    features = root / "features.hs"
    pipeline = {"data": data, "vectors": vectors, "features": features}
    config = root / "run.json"
    config.write_text(json.dumps(make_config(pipeline, root / "run")))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["preprocess", "--data", str(data), "--variant", "edited",
                     "--max-len", "6", "--out", str(tokens)]) == 0
        assert main(["pseudo-encode", "--tokens", str(tokens), "--layers", "4",
                     "--hidden", "4", "--seed", "1", "--out", str(features)]) == 0
        assert main(["train", "--config", str(config)]) == 0
    return dict(pipeline, root=root, checkpoint=root / "run" / "model.ckpt")


def corrupt(src, dst, data):
    """Write ``src`` to ``dst`` cut short, or with one to three bytes flipped."""
    raw = bytearray(src.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="keep")]
    else:
        flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255))
        for at, mask in data.draw(st.lists(flips, min_size=1, max_size=3), label="flips"):
            raw[at] ^= mask
    dst.write_bytes(bytes(raw))
    return dst


def assert_exits_2_with_one_line_or_succeeds(argv, missing_record_exits_1=False):
    """``missing_record_exits_1``: a flipped record id leaves a well-formed
    container that lacks a record of the dataset, which is a configuration
    error (exit 1, see test_cli's test_missing_feature_record_is_a_config_error)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    if code == 1 and missing_record_exits_1:
        assert re.fullmatch(r"error: \S+bad\.hs: no hidden states for record '.*'\n", message)
    elif code != 0:
        assert code == 2, message
        assert message.startswith("error: ") and message.count("\n") == 1, message


@FUZZ
@given(data=st.data())
def test_corrupted_checkpoint(files, data):
    bad = corrupt(files["checkpoint"], files["root"] / "bad.ckpt", data)
    assert_exits_2_with_one_line_or_succeeds(
        ["evaluate", "--checkpoint", str(bad), "--data", str(files["data"]),
         "--out", str(files["root"] / "p.csv")])


@FUZZ
@given(data=st.data())
def test_corrupted_hidden_state_container(files, data):
    bad = corrupt(files["features"], files["root"] / "bad.hs", data)
    assert_exits_2_with_one_line_or_succeeds(
        ["evaluate", "--checkpoint", str(files["checkpoint"]), "--data", str(files["data"]),
         "--features", str(bad), "--out", str(files["root"] / "p.csv")],
        missing_record_exits_1=True)


@FUZZ
@given(data=st.data())
def test_corrupted_vector_table(files, data):
    bad = corrupt(files["vectors"], files["root"] / "bad.txt", data)
    config = files["root"] / "bad_vectors.json"
    config.write_text(json.dumps(make_config(
        files, files["root"] / "bad_vectors_run", embedding_tables=[{"path": str(bad)}],
        train={"epochs": 1, "batch_size": 4, "learning_rate": 0.01})))
    assert_exits_2_with_one_line_or_succeeds(["train", "--config", str(config)])
