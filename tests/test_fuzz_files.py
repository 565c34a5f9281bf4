"""Corrupted input files: the CLI exits 2 with one line, or succeeds.

Bytes of a valid checkpoint, hidden-state container, vector table, token
file (TSV and JSON lines) and dataset CSV are flipped, or the file is cut
short.  `iben evaluate`/`train`/`pseudo-encode`/`stats` must then either
succeed or exit 2 with a single `error:` line on stderr; nothing may raise
out of `main`.  A
checkpoint's parameter table is also edited entry by entry, and any table
but the model's own must exit 2.
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
    jsonl = root / "tokens.jsonl"
    features = root / "features.hs"
    pipeline = {"data": data, "vectors": vectors, "features": features,
                "tsv": tokens, "jsonl": jsonl}
    config = root / "run.json"
    config.write_text(json.dumps(make_config(pipeline, root / "run")))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["preprocess", "--data", str(data), "--variant", "edited",
                     "--max-len", "6", "--out", str(tokens)]) == 0
        assert main(["preprocess", "--data", str(data), "--variant", "edited",
                     "--max-len", "6", "--out", str(jsonl), "--jsonl"]) == 0
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


@pytest.mark.parametrize("kind", ["tsv", "jsonl"])
@settings(FUZZ, max_examples=300)  # cheap examples; 150 never left a row without a token
@given(data=st.data())
def test_corrupted_token_file(files, data, kind):
    bad = corrupt(files[kind], files["root"] / f"bad.{kind}", data)
    assert_exits_2_with_one_line_or_succeeds(
        ["pseudo-encode", "--tokens", str(bad), "--layers", "2", "--hidden", "2",
         "--out", str(files["root"] / "tokens.hs")] + (["--jsonl"] if kind == "jsonl" else []))


@FUZZ
@given(data=st.data())
def test_corrupted_dataset_csv(files, data):
    """`iben stats` accepts an empty dataset, so a cut that leaves only the header succeeds."""
    bad = corrupt(files["data"], files["root"] / "bad.csv", data)
    assert_exits_2_with_one_line_or_succeeds(["stats", "--data", str(bad)])


def edit_param_table(table, data):
    """One field of one entry set to another value, or two entries swapped, or one
    entry duplicated into another position."""
    table = [dict(e) for e in table]
    index = st.integers(0, len(table) - 1)
    i = data.draw(index, label="entry")
    edit = data.draw(st.sampled_from(["field", "swap", "duplicate"]), label="edit")
    if edit == "swap":
        j = data.draw(index, label="with")
        table[i], table[j] = table[j], table[i]
    elif edit == "duplicate":
        table.insert(data.draw(st.integers(0, len(table)), label="at"), dict(table[i]))
    else:
        key = data.draw(st.sampled_from(["name", "shape", "offset"]), label="field")
        # the value written as float, e.g. 1.0 for 1, or as a longer name
        near = {"name": lambda v: v + "x", "shape": lambda v: [float(n) for n in v],
                "offset": float}[key](table[i][key])
        table[i][key] = data.draw(st.one_of(
            st.sampled_from([e[key] for e in table]),  # another entry's value, or its own
            st.just(near), st.booleans(), st.none(), st.integers(-9, 10 ** 6),
            st.text(max_size=4), st.lists(st.integers(0, 20), max_size=3)), label="value")
    return table


@FUZZ
@given(data=st.data())
def test_edited_checkpoint_param_table(files, data):
    header_line, _, blob = files["checkpoint"].read_bytes().partition(b"\n")
    header = json.loads(header_line)
    table = header["params"]
    header["params"] = edit_param_table(table, data)
    bad = files["root"] / "bad.ckpt"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["evaluate", "--checkpoint", str(bad), "--data", str(files["data"]),
                     "--out", str(files["root"] / "p.csv")])
    message = err.getvalue()
    if json.dumps(header["params"], sort_keys=True) == json.dumps(table, sort_keys=True):
        assert code == 0, message
    else:
        assert code == 2, message
        assert re.fullmatch(r"error: \S+bad\.ckpt: checkpoint params entry \d+ .*\n", message)
