"""End-to-end command-line tests driven through main()."""

import csv
import json
import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

import iben.cli as cli
import iben.model as model_lib
import iben.pipeline as pipeline_lib
import iben.train as train_lib
from iben import bertfuse, corpus, wordvec
from iben.bertfuse import (LayerStack, adjacent_pairing, fuse, listed_pairing, pseudo_encode,
                           read_hs_file, select_layers, uniform_weights, write_hs_file)
from iben.cli import main, validate_runconfig
from iben.errors import ConfigError

ROWS = [
    ("1", "Trump wants you to take his <tweets/> seriously", "hair", "33322", "2.6"),
    ("2", "Officials <warn/> about fighting in the region", "sing", "10000", "0.2"),
    ("3", "Senate <votes/> on budget deal", "dances", "22211", "1.6"),
    ("4", "City opens new <bridge/> downtown", "zoo", "11100", "0.6"),
]

VOCAB = ["trump", "wants", "take", "hair", "tweets", "seriously", "officials",
         "warn", "sing", "fighting", "region", "senate", "votes", "dances",
         "budget", "deal", "city", "opens", "new", "bridge", "zoo", "downtown"]


def write_dataset(path, rows=ROWS):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "original", "edit", "grades", "meanGrade"])
        writer.writerows(rows)
    return path


def write_vectors(path, dim=4):
    rng = np.random.default_rng(99)
    lines = [w + " " + " ".join(f"{v:.6f}" for v in rng.uniform(-0.5, 0.5, dim))
             for w in VOCAB]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Shared read-only inputs: dataset, vectors, tokens, hidden states."""
    root = tmp_path_factory.mktemp("pipeline")
    data = write_dataset(root / "data.csv")
    vectors = write_vectors(root / "vectors.txt")
    tokens = root / "tokens.tsv"
    assert main(["preprocess", "--data", str(data), "--variant", "edited",
                 "--max-len", "6", "--out", str(tokens)]) == 0
    features = root / "features.hs"
    assert main(["pseudo-encode", "--tokens", str(tokens), "--layers", "4",
                 "--hidden", "4", "--seed", "1", "--out", str(features)]) == 0
    return {"root": root, "data": data, "vectors": vectors,
            "tokens": tokens, "features": features}


def make_config(pipeline, out_dir, **overrides):
    cfg = {
        "train_data": str(pipeline["data"]),
        "out_dir": str(out_dir),
        "features": str(pipeline["features"]),
        "embedding_tables": [{"path": str(pipeline["vectors"])}],
        "max_len": 6,
        "hidden_size": 3,
        "dense_size": 2,
        "kernel_sizes": [1, 2],
        "filters_per_kernel": 2,
        "train": {"epochs": 2, "batch_size": 2, "learning_rate": 0.01},
        "seed": 1,
    }
    cfg.update(overrides)
    return cfg


def write_config(pipeline, out_dir, **overrides):
    cfg = make_config(pipeline, out_dir, **overrides)
    path = out_dir.parent / f"{out_dir.name}.json" if out_dir.name else out_dir / "run.json"
    path = out_dir.parent / (out_dir.name + ".run.json")
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestValidateRunconfig:
    def minimal(self):
        return {"train_data": "x.csv", "out_dir": "out", "branches": "emb",
                "embedding_tables": [{"path": "v.txt"}]}

    def test_defaults_are_filled(self):
        resolved = validate_runconfig(self.minimal())
        assert resolved["variant"] == "edited"
        assert resolved["max_len"] == 40
        assert resolved["train"]["epochs"] == 25
        assert resolved["train"]["batch_size"] == 16
        assert resolved["train"]["learning_rate"] == 0.001
        assert resolved["seed"] == 0
        assert resolved["pairing"] == "adjacent"
        assert resolved["embedding_tables"][0]["format"] == "glove_text"

    def test_resolution_is_idempotent(self):
        once = validate_runconfig(self.minimal())
        assert validate_runconfig(once) == once

    def test_unknown_key_rejected(self):
        cfg = self.minimal()
        cfg["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            validate_runconfig(cfg)

    def test_wrong_type_rejected(self):
        cfg = self.minimal()
        cfg["max_len"] = "forty"
        with pytest.raises(ConfigError, match="max_len"):
            validate_runconfig(cfg)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="train_data"):
            validate_runconfig({"out_dir": "out"})

    def test_bert_branch_needs_features(self):
        cfg = self.minimal()
        cfg["branches"] = "both"
        with pytest.raises(ConfigError, match="features"):
            validate_runconfig(cfg)

    def test_dev_data_needs_dev_features_only_with_the_encoder_branch(self):
        cfg = self.minimal()
        cfg["dev_data"] = "dev.csv"
        assert validate_runconfig(cfg)["dev_features"] is None
        cfg.update(branches="both", features="f.hs")
        with pytest.raises(ConfigError, match="dev_data needs dev_features"):
            validate_runconfig(cfg)

    def test_emb_branch_needs_tables(self):
        cfg = self.minimal()
        cfg["embedding_tables"] = []
        with pytest.raises(ConfigError, match="embedding_tables"):
            validate_runconfig(cfg)

    def test_learnable_weights_exclude_fixed_weights(self):
        cfg = self.minimal()
        cfg.update(branches="bert", features="f.hs",
                   learn_layer_weights=True, layer_weights=[1.0, 2.0])
        with pytest.raises(ConfigError, match="mutually exclusive"):
            validate_runconfig(cfg)

    def test_learnable_weights_need_layer_sequence(self):
        cfg = self.minimal()
        cfg.update(branches="bert", features="f.hs",
                   learn_layer_weights=True, fusion_mode="summed")
        with pytest.raises(ConfigError, match="layer_sequence"):
            validate_runconfig(cfg)

    def test_a_rule_holds_only_where_its_key_is_used(self):
        bert_only = {"train_data": "x.csv", "out_dir": "out", "branches": "bert",
                     "features": "f.hs", "max_len": 1,
                     "oov": {"kind": "seeded_uniform", "low": 1, "high": 0}}
        assert validate_runconfig(bert_only)["max_len"] == 1
        no_conv = {**self.minimal(), "emb_submodel": "bigru", "max_len": 1, "layers": [1]}
        assert validate_runconfig(no_conv)["layers"] == [1]

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            validate_runconfig(["not", "a", "config"])

    # each constrains one value, and none of them a key's value by another key's
    ONE_VALUE_KEYWORDS = {"$schema", "$id", "title", "description", "default", "type", "enum",
                          "properties", "additionalProperties", "required", "items", "minItems",
                          "uniqueItems", "minimum", "exclusiveMinimum", "exclusiveMaximum"}

    @classmethod
    def subschemas(cls, node, where="<root>"):
        yield where, node
        for key, sub in node.get("properties", {}).items():
            yield from cls.subschemas(sub, f"{where}/{key}")
        if isinstance(node.get("items"), dict):
            yield from cls.subschemas(node["items"], f"{where}/items")

    def test_filling_the_shipped_defaults_keeps_a_config_valid(self):
        """``validate_runconfig`` validates once, before the defaults fill in.
        That is enough because no keyword relates two values and each
        default is valid where it is declared, so the resolved echo is valid."""
        schema = cli.runconfig_schema()
        for where, node in self.subschemas(schema):
            assert set(node) <= self.ONE_VALUE_KEYWORDS, where
            assert node.get("additionalProperties", False) is False, where
            if "default" in node:
                default = node["default"]
                filled = cli._fill_defaults(default, node) if isinstance(default, dict) else default
                assert cli._schema_errors(node, filled) is None, where
        for raw in (self.minimal(), {**self.minimal(), "oov": {}, "train": {},
                                     "embedding_tables": [{"path": "a"}, {"path": "b"}]}):
            assert cli._schema_errors(schema, validate_runconfig(raw)) is None


class TestPreprocess:
    def test_edited_variant_substitutes(self, pipeline):
        lines = pipeline["tokens"].read_text().splitlines()
        assert len(lines) == 4
        first = lines[0]
        assert first.startswith("1\t")
        assert "hair" in first and "tweets" not in first
        assert all(len(line.split("\t")[1].split(" ")) == 6 for line in lines)

    def test_original_variant_keeps_the_marked_word(self, pipeline, tmp_path, capsys):
        out = tmp_path / "orig.tsv"
        assert main(["preprocess", "--data", str(pipeline["data"]),
                     "--variant", "original", "--max-len", "6",
                     "--out", str(out)]) == 0
        assert "records 4" in capsys.readouterr().out
        assert "tweets" in out.read_text().splitlines()[0]

    def test_jsonl_output(self, pipeline, tmp_path):
        out = tmp_path / "tokens.jsonl"
        assert main(["preprocess", "--data", str(pipeline["data"]),
                     "--variant", "edited", "--max-len", "6",
                     "--out", str(out), "--jsonl"]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in rows] == ["1", "2", "3", "4"]
        assert all(len(r["tokens"]) == 6 for r in rows)

    def test_header_only_csv_gives_empty_output(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("id,original,edit,grades,meanGrade\n")
        out = tmp_path / "tokens.tsv"
        assert main(["preprocess", "--data", str(data), "--variant", "edited",
                     "--out", str(out)]) == 0
        assert out.read_text() == ""
        assert "records 0" in capsys.readouterr().out

    def test_bad_row_exits_2_and_names_the_row(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        rows = list(ROWS)
        rows[1] = ("2", "No marker here", "sing", "10000", "0.2")
        write_dataset(data, rows)
        out = tmp_path / "tokens.tsv"
        assert main(["preprocess", "--data", str(data), "--variant", "edited",
                     "--out", str(out)]) == 2
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("record_id", ["a\tb", "a\nb", "a\rb"], ids=["tab", "lf", "cr"])
    def test_tsv_refuses_an_id_with_a_tab_or_line_break(self, tmp_path, capsys, record_id):
        data = write_dataset(tmp_path / "ids.csv", [(record_id,) + ROWS[0][1:]] + ROWS[1:])
        out = tmp_path / "tokens.tsv"
        assert main(["preprocess", "--data", str(data), "--variant", "edited",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "ids.csv" in err and "--jsonl" in err
        assert repr(record_id) in err
        assert not out.exists()
        # JSON lines carry the id intact through pseudo-encode
        jsonl = tmp_path / "tokens.jsonl"
        assert main(["preprocess", "--data", str(data), "--variant", "edited",
                     "--out", str(jsonl), "--jsonl"]) == 0
        features = tmp_path / "ids.hs"
        assert main(["pseudo-encode", "--tokens", str(jsonl), "--jsonl", "--layers", "2",
                     "--hidden", "2", "--out", str(features)]) == 0
        assert [s.id for s in read_hs_file(features)] == [record_id, "2", "3", "4"]

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["preprocess", "--data", str(tmp_path / "nope.csv"),
                     "--variant", "edited", "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_histogram_output(self, pipeline, capsys):
        assert main(["stats", "--data", str(pipeline["data"]),
                     "--bin-width", "1.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "bin,count"
        assert lines[1:] == ["0,2", "1,1", "2,1", "total,4"]

    def test_default_width_covers_the_grade_range(self, pipeline, capsys):
        assert main(["stats", "--data", str(pipeline["data"])]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 15 + 1  # header, 15 bins of 0.2, total
        assert lines[-1] == "total,4"
        assert sum(int(line.split(",")[1]) for line in lines[1:-1]) == 4

    @pytest.mark.parametrize("width", ["0.0009", "inf", "nan", "-1"])
    def test_width_not_finite_or_below_a_thousandth_exits_1_naming_it(
            self, pipeline, capsys, width):
        """A width of 1e-7 would ask for 3e7 bins, one loop step each."""
        assert main(["stats", "--data", str(pipeline["data"]), "--bin-width", width]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: bin width {float(width):g} is not a finite number "
                                f"of at least 0.001\n")

    def test_width_of_a_thousandth_gives_3000_bins(self, pipeline, capsys):
        assert main(["stats", "--data", str(pipeline["data"]), "--bin-width", "0.001"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 3000 + 1
        assert lines[-2] == "2.999,0" and lines[-1] == "total,4"


    @pytest.mark.parametrize("argv", [["stats", "--data", "{data}"],
                                      ["baseline", "--train", "{data}", "--eval", "{data}"],
                                      ["preprocess", "--data", "{data}", "--variant", "edited",
                                       "--out", "{out}"]], ids=lambda argv: argv[0])
    def test_a_field_over_the_csv_limit_exits_2_naming_the_row(self, tmp_path, capsys, argv):
        """Python's csv module refuses a field of more than 131,072 characters."""
        data = write_dataset(tmp_path / "long.csv",
                             ROWS[:1] + [("2", "x" * 131_073 + " <warn/>", "sing", "1", "1")])
        out = tmp_path / "tokens.tsv"
        assert main([a.format(data=data, out=out) for a in argv]) == 2
        assert capsys.readouterr().err == (f"error: {data} row 3: field larger than field "
                                           f"limit (131072)\n")
        assert not out.exists()

    @pytest.mark.parametrize("grades", ["1²", "1٣"], ids=["superscript_two", "arabic_three"])
    def test_a_grade_that_is_not_an_ascii_digit_exits_2_naming_the_row(self, tmp_path, capsys,
                                                                      grades):
        """``str.isdigit`` holds for both; ``int`` refuses ``²`` and reads ``٣`` as 3."""
        data = write_dataset(tmp_path / "grades.csv",
                             ROWS[:1] + [("2", "Officials <warn/> about it", "sing", grades, "2")])
        assert main(["stats", "--data", str(data)]) == 2
        assert capsys.readouterr().err == (f"error: {data} row 3: grades {grades!r} is not a "
                                           f"string of the digits 0-9\n")


class TestPseudoEncode:
    def test_container_contents(self, pipeline):
        stacks = read_hs_file(pipeline["features"])
        assert [s.id for s in stacks] == ["1", "2", "3", "4"]
        for s in stacks:
            assert s.n_layers == 4 and s.hidden == 4
            assert 1 <= s.seq_len <= 6

    @pytest.mark.parametrize("layers, hidden", [("0", "4"), ("4", "0")])
    def test_no_layer_or_no_hidden_unit_exits_1(self, pipeline, tmp_path, capsys, layers,
                                                 hidden):
        out = tmp_path / "none.hs"
        assert main(["pseudo-encode", "--tokens", str(pipeline["tokens"]), "--layers", layers,
                     "--hidden", hidden, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: n_layers and hidden must be positive\n"
        assert not out.exists()

    def test_deterministic_across_runs(self, pipeline, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"f{i}.hs"
            assert main(["pseudo-encode", "--tokens", str(pipeline["tokens"]),
                         "--layers", "4", "--hidden", "4", "--seed", "1",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] == pipeline["features"].read_bytes()

    def test_one_stack_is_held_at_a_time(self, pipeline, tmp_path, monkeypatch):
        encode, alive = bertfuse.pseudo_encode, []

        def encode_and_watch(*args, **kwargs):
            assert all(ref() is None for ref in alive), "an earlier stack is alive"
            stack = encode(*args, **kwargs)
            alive.append(weakref.ref(stack.data))
            return stack

        monkeypatch.setattr(bertfuse, "pseudo_encode", encode_and_watch)
        out = tmp_path / "watched.hs"
        assert main(["pseudo-encode", "--tokens", str(pipeline["tokens"]), "--layers", "4",
                     "--hidden", "4", "--seed", "1", "--out", str(out)]) == 0
        assert len(alive) == 4 and out.read_bytes() == pipeline["features"].read_bytes()

    def test_seed_changes_the_output(self, pipeline, tmp_path):
        out = tmp_path / "other.hs"
        assert main(["pseudo-encode", "--tokens", str(pipeline["tokens"]),
                     "--layers", "4", "--hidden", "4", "--seed", "2",
                     "--out", str(out)]) == 0
        assert out.read_bytes() != pipeline["features"].read_bytes()

    def test_jsonl_token_file_round_trips(self, pipeline, tmp_path):
        jsonl = tmp_path / "tokens.jsonl"
        assert main(["preprocess", "--data", str(pipeline["data"]), "--variant", "edited",
                     "--max-len", "6", "--out", str(jsonl), "--jsonl"]) == 0
        out = tmp_path / "from_jsonl.hs"
        assert main(["pseudo-encode", "--tokens", str(jsonl), "--jsonl", "--layers", "4",
                     "--hidden", "4", "--seed", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == pipeline["features"].read_bytes()

    @pytest.mark.parametrize("row", [
        '{"id": 5, "tokens": ["a"]}',
        '{"id": null, "tokens": ["a"]}',
        '{"id": "b", "tokens": "abc"}',
        '{"id": "b", "tokens": [1, null]}',
        '{"id": "b", "tokens": ["\\ud800"]}',
        '{"id": "b", "tokens": ["<pad>", "<pad>"]}',
        '["b", ["a"]]',
        '"b a"',
    ], ids=["int_id", "null_id", "string_tokens", "non_string_tokens", "lone_surrogate",
            "only_pads", "list_row", "string_row"])
    def test_bad_jsonl_row_exits_2_naming_the_line(self, tmp_path, capsys, row):
        tokens = tmp_path / "rows.jsonl"
        tokens.write_text('{"id": "a", "tokens": ["x", "<pad>"]}\n' + row + "\n")
        out = tmp_path / "rows.hs"
        assert main(["pseudo-encode", "--tokens", str(tokens), "--jsonl", "--layers", "2",
                     "--hidden", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "rows.jsonl line 2: " in err
        assert not out.exists()

    @pytest.mark.parametrize("row", ["b\t", "b\t<pad> <pad>"], ids=["no_tokens", "only_pads"])
    def test_tsv_row_without_a_token_exits_2_naming_the_line(self, tmp_path, capsys, row):
        tokens = tmp_path / "rows.tsv"
        tokens.write_text("a\tx <pad>\n" + row + "\n")
        assert main(["pseudo-encode", "--tokens", str(tokens), "--layers", "2",
                     "--hidden", "2", "--out", str(tmp_path / "rows.hs")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "rows.tsv line 2: row 'b' has no token" in err

    @pytest.mark.parametrize("jsonl", [False, True], ids=["tsv", "jsonl"])
    def test_every_token_but_the_pad_token_reaches_the_stack(self, tmp_path, jsonl):
        rows = [("a", ["cat", "<pad>", "fish"]), ("b", ["<pad>", "dog"])]
        tokens = tmp_path / ("rows.jsonl" if jsonl else "rows.tsv")
        tokens.write_text("".join(json.dumps({"id": i, "tokens": t}) + "\n" if jsonl
                                  else f"{i}\t{' '.join(t)}\n" for i, t in rows))
        out = tmp_path / "rows.hs"
        argv = ["pseudo-encode", "--tokens", str(tokens), "--layers", "2", "--hidden", "3",
                "--seed", "4", "--out", str(out)]
        assert main(argv + (["--jsonl"] if jsonl else [])) == 0
        a, b = read_hs_file(out)
        assert (a.seq_len, b.seq_len) == (2, 1)
        real = pseudo_encode(corpus.TokenSequence(("cat", "fish")), 2, 3, 4)
        np.testing.assert_array_equal(a.data, real.data)

    @pytest.mark.parametrize("jsonl", [False, True], ids=["tsv", "jsonl"])
    def test_repeated_id_exits_2_naming_both_lines(self, tmp_path, capsys, jsonl):
        rows = [("a", ["x", "y"]), ("b", ["w"]), ("a", ["z"])]
        tokens = tmp_path / ("rows.jsonl" if jsonl else "rows.tsv")
        tokens.write_text("".join(json.dumps({"id": i, "tokens": t}) + "\n" if jsonl
                                  else f"{i}\t{' '.join(t)}\n" for i, t in rows))
        out = tmp_path / "rows.hs"
        argv = ["pseudo-encode", "--tokens", str(tokens), "--layers", "2", "--hidden", "2",
                "--out", str(out)]
        assert main(argv + (["--jsonl"] if jsonl else [])) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{tokens.name} line 3: id 'a' repeats the id of line 1" in err
        assert not out.exists()


def read_history(out_dir):
    with open(out_dir / "history.csv", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestTrain:
    def test_writes_all_artifacts(self, pipeline, tmp_path, capsys):
        out_dir = tmp_path / "run"
        config = write_config(pipeline, out_dir)
        assert main(["train", "--config", str(config)]) == 0
        stdout = capsys.readouterr().out
        assert "checkpoint " in stdout and "final_train_loss " in stdout
        assert (out_dir / "model.ckpt").exists()
        history = read_history(out_dir)
        assert [row["epoch"] for row in history] == ["1", "2"]
        resolved = json.loads((out_dir / "config.resolved.json").read_text())
        assert resolved["train"]["epochs"] == 2
        assert resolved["variant"] == "edited"

    def test_zero_learning_rate_gives_flat_history(self, pipeline, tmp_path):
        out_dir = tmp_path / "flat"
        config = write_config(pipeline, out_dir,
                              train={"epochs": 3, "learning_rate": 0.0})
        assert main(["train", "--config", str(config)]) == 0
        losses = {row["train_loss"] for row in read_history(out_dir)}
        assert len(losses) == 1

    def test_same_config_twice_is_byte_identical(self, pipeline, tmp_path):
        out_dir = tmp_path / "det"
        config = write_config(pipeline, out_dir)
        assert main(["train", "--config", str(config)]) == 0
        first = (out_dir / "model.ckpt").read_bytes()
        assert main(["train", "--config", str(config)]) == 0
        assert (out_dir / "model.ckpt").read_bytes() == first

    def test_cli_overrides_beat_the_config(self, pipeline, tmp_path):
        out_dir = tmp_path / "override"
        config = write_config(pipeline, tmp_path / "ignored")
        assert main(["train", "--config", str(config), "--seed", "5",
                     "--epochs", "1", "--out-dir", str(out_dir)]) == 0
        resolved = json.loads((out_dir / "config.resolved.json").read_text())
        assert resolved["seed"] == 5
        assert resolved["train"]["epochs"] == 1
        assert len(read_history(out_dir)) == 1

    @pytest.mark.parametrize("section", [5, [["epochs", 3], ["batch_size", 2]], None],
                             ids=["number", "list_of_pairs", "null"])
    def test_an_override_leaves_a_train_section_that_is_no_object_to_the_schema(
            self, pipeline, tmp_path, capsys, section):
        config = write_config(pipeline, tmp_path / "never", train=section)
        assert main(["train", "--config", str(config), "--epochs", "2"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: run config rejected: train: ")
        assert "is not of type 'object'" in err

    CONFIG_ONLY_RULES = {
        "odd_layers": ({"layers": [1, 2, 3]},
                       "layers: 3 indices do not pair; fusion needs an even count"),
        "repeated_layer": ({"layers": [1, 2, 2, 3]}, "layers: an index repeats in [1, 2, 2, 3]"),
        "weights_for_the_listed_layers": ({"layers": [1, 2, 3, 4], "layer_weights": [1.0] * 3},
                                          "layer_weights: 3 weights for the 2 pairs of layers"),
        "empty_oov_range": ({"oov": {"kind": "seeded_uniform", "low": 0.5, "high": -0.5}},
                            "oov: OOV range is empty: high -0.5 is below low 0.5"),
        "max_len_below_a_kernel": ({"max_len": 1},
                                   "max_len: 1 is below the largest kernel_sizes entry, 2"),
        "empty_layers": ({"layers": []}, "run config rejected: layers: [] should be non-empty"),
    }

    @pytest.mark.parametrize("name", list(CONFIG_ONLY_RULES))
    def test_a_rule_of_the_config_alone_exits_1_naming_the_key_before_any_input_is_read(
            self, pipeline, tmp_path, capsys, setup_calls, name):
        overrides, message = self.CONFIG_ONLY_RULES[name]
        out_dir = tmp_path / "never"
        config = write_config(pipeline, out_dir, **overrides)
        assert main(["train", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert setup_calls == [] and not out_dir.exists()

    def test_dev_data_adds_a_history_column(self, pipeline, tmp_path, capsys):
        out_dir = tmp_path / "dev"
        config = write_config(pipeline, out_dir,
                              dev_data=str(pipeline["data"]),
                              dev_features=str(pipeline["features"]))
        assert main(["train", "--config", str(config)]) == 0
        assert "final_dev_rmse " in capsys.readouterr().out
        history = read_history(out_dir)
        assert all(float(row["dev_rmse"]) >= 0 for row in history)

    def test_schema_violation_exits_1_before_reading_data(self, pipeline, tmp_path, capsys):
        config = tmp_path / "bad.json"
        cfg = make_config(pipeline, tmp_path / "never")
        cfg["train_data"] = str(tmp_path / "does-not-exist.csv")
        cfg["mystery_knob"] = True
        config.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(config)]) == 1
        assert "mystery_knob" in capsys.readouterr().err

    def test_repeated_kernel_sizes_exit_1(self, pipeline, tmp_path, capsys):
        config = write_config(pipeline, tmp_path / "repeated", kernel_sizes=[2, 2])
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "kernel_sizes" in err and "non-unique" in err

    def test_unreadable_config_json_exits_2(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert main(["train", "--config", str(config)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("eps", math.inf), ("learning_rate", math.nan), ("learning_rate", -math.inf),
    ], ids=["infinite_eps", "nan_learning_rate", "minus_infinite_learning_rate"])
    def test_nan_or_infinity_in_the_config_exits_2(self, pipeline, tmp_path, capsys,
                                                   key, value):
        """Python's json reads NaN and Infinity, which are not JSON and which a
        schema's minimum does not catch."""
        out_dir = tmp_path / "never"
        cfg = make_config(pipeline, out_dir)
        cfg["train"][key] = value
        config = tmp_path / "nonfinite.json"
        config.write_text(json.dumps(cfg))
        literal = json.dumps(value)
        assert literal in config.read_text()
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nonfinite.json" in err
        assert f"{literal} is not a JSON number" in err
        assert not out_dir.exists()

    def test_a_non_finite_hidden_state_exits_2_naming_the_record(self, pipeline, tmp_path,
                                                                   capsys):
        raw = bytearray(pipeline["features"].read_bytes())
        (id_len,) = struct.unpack_from("<I", raw, 12)  # after the magic and the record count
        record_id = raw[16:16 + id_len].decode("utf-8")
        struct.pack_into("<f", raw, 16 + id_len + 12 + 4, math.nan)  # the payload's 2nd value
        features = tmp_path / "nan.hs"
        features.write_bytes(bytes(raw))
        out_dir = tmp_path / "never"
        config = write_config(pipeline, out_dir, features=str(features))
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nan.hs: record index 0" in err
        assert f"({record_id!r}) holds non-finite values" in err

    @pytest.mark.parametrize("member, argv, path, shown", [
        ('"train": {"eps": 1e999}', [], "train/eps", "inf"),
        ('"train": {"learning_rate": 1e999}', [], "train/learning_rate", "inf"),
        ('"oov": {"low": -1e999}', [], "oov/low", "-inf"),
        ('"layer_weights": [1.0, 1e999]', [], "layer_weights/1", "inf"),
        ('"seed": 1', ["--learning-rate", "nan"], "train/learning_rate", "nan"),
        ('"seed": 1', ["--learning-rate", "inf"], "train/learning_rate", "inf"),
    ], ids=["overflowing_eps", "overflowing_learning_rate", "overflowing_negative",
            "overflowing_list_item", "nan_flag", "inf_flag"])
    def test_non_finite_number_exits_1_naming_its_path_before_reading_data(
            self, pipeline, tmp_path, capsys, member, argv, path, shown):
        """An overflowing JSON literal reads as inf, and argparse's float takes
        nan and inf; neither is a constant the JSON reader can refuse."""
        out_dir = tmp_path / "never"
        cfg = make_config(pipeline, out_dir, train_data=str(tmp_path / "absent.csv"))
        del cfg["train"], cfg["seed"]
        config = tmp_path / "overflow.json"
        config.write_text(json.dumps(cfg)[:-1] + ", " + member + "}")
        assert main(["train", "--config", str(config)] + argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: run config rejected: {path}: {shown} is not a finite number\n"
        assert not out_dir.exists()

    def test_integer_past_the_digit_limit_exits_2(self, pipeline, tmp_path, capsys):
        config = tmp_path / "digits.json"
        config.write_text(json.dumps(make_config(pipeline, tmp_path / "never"))
                          .replace('"seed": 1', '"seed": ' + "1" * 5000))
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "digits.json: not valid JSON" in err

    def test_config_nested_past_the_recursion_limit_exits_2(self, tmp_path, capsys):
        config = tmp_path / "deep.json"
        config.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "deep.json" in err and "nested too deeply" in err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.json")]) == 2

    def test_duplicate_feature_record_exits_2_naming_the_file(self, pipeline, tmp_path,
                                                               capsys):
        # write_hs_file refuses a repeated id, so copy record 0's id over record 1's
        first = read_hs_file(pipeline["features"])[0]
        id_bytes = first.id.encode()
        raw = bytearray(pipeline["features"].read_bytes())
        at = 16 + len(id_bytes) + 12 + 4 * first.data.size + 4  # record 1's id
        assert struct.unpack_from("<I", raw, at - 4)[0] == len(id_bytes)
        raw[at:at + len(id_bytes)] = id_bytes
        features = tmp_path / "duplicate.hs"
        features.write_bytes(bytes(raw))
        config = write_config(pipeline, tmp_path / "duplicate_run", features=str(features))
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {features}: record index 1 has duplicate stack id {first.id!r}\n"

    def test_missing_feature_record_is_a_config_error(self, pipeline, tmp_path, capsys):
        # hidden states built for only half the dataset
        tokens = tmp_path / "partial.tsv"
        tokens.write_text("\n".join(
            line for line in pipeline["tokens"].read_text().splitlines()[:2]) + "\n")
        features = tmp_path / "partial.hs"
        assert main(["pseudo-encode", "--tokens", str(tokens), "--layers", "4",
                     "--hidden", "4", "--seed", "1", "--out", str(features)]) == 0
        out_dir = tmp_path / "partial_run"
        config = write_config(pipeline, out_dir, features=str(features))
        assert main(["train", "--config", str(config)]) == 1
        assert "no hidden states" in capsys.readouterr().err

    def test_empty_dev_set_exits_1_before_training(self, pipeline, tmp_path, capsys):
        dev = write_dataset(tmp_path / "empty_dev.csv", rows=[])
        out_dir = tmp_path / "empty_dev_run"
        config = write_config(pipeline, out_dir, dev_data=str(dev),
                              dev_features=str(pipeline["features"]))
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {dev}: dev set is empty\n"
        assert not out_dir.exists()

    def test_dev_data_without_dev_features_exits_1_before_reading_an_input(
            self, pipeline, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an input file was read before the config was refused")

        monkeypatch.setattr(bertfuse, "read_hs_file", refuse)
        monkeypatch.setattr(wordvec, "load_text_vectors", refuse)
        out_dir = tmp_path / "no_dev_features_run"
        config = write_config(pipeline, out_dir, dev_data=str(pipeline["data"]))
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == "error: dev_data needs dev_features when the encoder branch is on\n"
        assert not out_dir.exists()

    def test_records_of_two_shapes_exit_1_naming_the_record_before_any_table_loads(
            self, pipeline, tmp_path, capsys, monkeypatch):
        # write_hs_file refuses stacks of two shapes, so splice two containers' records
        stacks = read_hs_file(pipeline["features"])
        wide = [LayerStack(np.concatenate([s.data] * 2, axis=2), id=s.id) for s in stacks[2:]]
        write_hs_file(stacks[:2], tmp_path / "narrow.hs")
        write_hs_file(wide, tmp_path / "wide.hs")
        narrow, wide = (tmp_path / "narrow.hs").read_bytes(), (tmp_path / "wide.hs").read_bytes()
        features = tmp_path / "two_shapes.hs"
        features.write_bytes(narrow[:8] + struct.pack("<I", 4) + narrow[12:] + wide[12:])

        def refuse(*args, **kwargs):
            raise AssertionError("a table loaded before the container was refused")

        monkeypatch.setattr(wordvec, "load_text_vectors", refuse)
        config = write_config(pipeline, tmp_path / "two_shapes_run", features=str(features))
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {features}: record '3' holds 4x8 layers x width, expected 4x4\n"

    def test_dev_container_of_another_width_names_it(self, pipeline, tmp_path, capsys,
                                                     setup_calls):
        wide = tmp_path / "wide.hs"
        assert main(["pseudo-encode", "--tokens", str(pipeline["tokens"]), "--layers", "4",
                     "--hidden", "8", "--seed", "1", "--out", str(wide)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "wide_dev_run"
        config = write_config(pipeline, out_dir, dev_data=str(pipeline["data"]),
                              dev_features=str(wide))
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {wide}: records fuse to 2x32, the model takes 2x16\n"
        assert not out_dir.exists()
        # refused before any table loads: both containers fused, nothing embedded
        assert setup_calls == ["read_hs_file"] + ["fuse"] * 4 + ["read_hs_file"] + ["fuse"] * 4

    def test_wrong_layer_weights_with_layers_null_are_refused_after_one_record(
            self, pipeline, tmp_path, capsys, setup_calls):
        """The pair count comes from the container's first record, so a container
        cut inside its second record gives the config error, not the cut's."""
        first = read_hs_file(pipeline["features"])[0]
        second = 16 + len(first.id.encode()) + 12 + 4 * first.data.size  # record 1's id length
        features = tmp_path / "cut.hs"
        features.write_bytes(pipeline["features"].read_bytes()[:second + 10])
        config = write_config(pipeline, tmp_path / "cut_run", features=str(features))
        assert main(["train", "--config", str(config)]) == 2
        assert "record index 1" in capsys.readouterr().err
        setup_calls.clear()
        config = write_config(pipeline, tmp_path / "weights_run", features=str(features),
                              layer_weights=[1.0] * 3)
        assert main(["train", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (f"error: {features}: 3 layer_weights for the 2 "
                                           f"layer pairs of its records\n")
        assert setup_calls == ["read_hs_file"]

    @pytest.mark.parametrize("overrides, layers, message", [
        ({"layer_weights": [1.0] * 3}, 4, "3 layer_weights for the 2 layer pairs of its records"),
        ({"layers": [1, 9]}, 4, "layers names layer 9, its records hold 4"),
        ({}, 3, "its records hold 3 layers, an odd count; set layers to an even count of them"),
    ], ids=["layer_weights", "layer_beyond", "odd_layer_count"])
    def test_a_config_the_container_does_not_fit_is_refused_before_any_fusion(
            self, pipeline, tmp_path, capsys, setup_calls, overrides, layers, message):
        """The fusion plan comes from the config and the first record: a misfit
        is refused once, naming the container and the key, before any record fuses."""
        features = tmp_path / "features.hs"
        assert main(["pseudo-encode", "--tokens", str(pipeline["tokens"]), "--layers",
                     str(layers), "--hidden", "4", "--seed", "1", "--out", str(features)]) == 0
        capsys.readouterr()
        config = write_config(pipeline, tmp_path / "misfit_run", features=str(features),
                              **overrides)
        assert main(["train", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {features}: {message}\n"
        assert setup_calls == ["read_hs_file"]

    def test_container_cut_inside_a_record_names_the_file_and_record(self, pipeline,
                                                                      tmp_path, capsys):
        raw = pipeline["features"].read_bytes()
        id_len = struct.unpack_from("<I", raw, 12)[0]
        features = tmp_path / "cut.hs"
        features.write_bytes(raw[:16 + id_len + 5])  # inside record 0's dimensions
        config = write_config(pipeline, tmp_path / "cut_run", features=str(features))
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {features}: record index 0 ('1'): file ends inside the "
                       f"dimensions (12 bytes declared, 5 left)\n")


FUSION_CONFIGS = {
    "defaults": ({}, 4),
    "listed": ({"layers": [7, 2, 3, 8], "pairing": "listed"}, 2),
    "adjacent_over_layers": ({"layers": [7, 2, 3, 8]}, 2),
    "summed": ({"fusion_mode": "summed", "layer_weights": [0.5, 2.0, -1.0, 3.0]}, 1),
    "learned": ({"learn_layer_weights": True}, 4),
}


class TestFusionConfigs:
    """Each fusion key through `iben train`, on eight layers of width 4."""

    @pytest.fixture(scope="class")
    def features8(self, pipeline, tmp_path_factory):
        path = tmp_path_factory.mktemp("fusion") / "features8.hs"
        assert main(["pseudo-encode", "--tokens", str(pipeline["tokens"]), "--layers", "8",
                     "--hidden", "4", "--seed", "1", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("name", list(FUSION_CONFIGS))
    def test_train_fuses_each_record_as_configured(self, pipeline, features8, tmp_path, name):
        overrides, n_rows = FUSION_CONFIGS[name]
        out_dir = tmp_path / name
        config = write_config(pipeline, out_dir, features=str(features8), **overrides)
        assert main(["train", "--config", str(config)]) == 0
        resolved = json.loads((out_dir / "config.resolved.json").read_text())
        net = model_lib.load_checkpoint(out_dir / "model.ckpt")
        assert (net.config.n_pairs, net.config.fused_width) == (n_rows, 16)
        assert (net.layer_weights is not None) == (name == "learned")

        layers = resolved["layers"] or range(1, 9)
        pairing = (listed_pairing if resolved["pairing"] == "listed"
                   else adjacent_pairing)(len(layers))
        weights = resolved["layer_weights"] or uniform_weights(len(pairing))
        stacks = {s.id: s for s in read_hs_file(features8)}
        (samples,), _ = pipeline_lib.assemble(
            resolved, [(corpus.parse_dataset(pipeline["data"]), str(features8))])
        assert [record_id for record_id, _, _ in samples] == ["1", "2", "3", "4"]
        for record_id, (fused, _), _ in samples:
            want = fuse(select_layers(stacks[record_id], layers), pairing, weights,
                        resolved["fusion_mode"])
            assert fused.data.shape == (n_rows, 16)
            assert np.array_equal(fused.data, want.data)


class TestAssembleSamples:
    def test_at_most_one_float64_stack_is_alive_at_any_time(self, pipeline, tmp_path,
                                                             monkeypatch):
        """Each record is fused and dropped before the next is read, and no stack
        is held while a table is."""
        read, load = bertfuse.read_hs_file, wordvec.load_text_vectors
        alive = []

        def read_and_watch(path, *, each):
            def watch(stack):
                assert all(ref() is None for ref in alive), "an earlier stack is alive"
                alive.append(weakref.ref(stack.data))
                each(stack)

            return read(path, each=watch)

        def load_after_the_stacks_are_gone(*args, **kwargs):
            assert alive and all(ref() is None for ref in alive)
            return load(*args, **kwargs)

        monkeypatch.setattr(bertfuse, "read_hs_file", read_and_watch)
        monkeypatch.setattr(wordvec, "load_text_vectors", load_after_the_stacks_are_gone)
        resolved = validate_runconfig(make_config(pipeline, tmp_path / "out"))
        (samples,), _ = pipeline_lib.assemble(
            resolved, [(corpus.parse_dataset(pipeline["data"]), resolved["features"])])
        assert len(samples) == 4 and len(alive) == 4

    def test_train_loads_each_table_once_after_the_container_is_freed(self, pipeline,
                                                                      tmp_path, monkeypatch):
        """The training and dev splits share one load of every vector table, made
        after both splits' containers are read, and at most one float64 stack
        is alive at any time."""
        second = write_vectors(tmp_path / "second.txt", dim=3)
        read, load = bertfuse.read_hs_file, wordvec.load_text_vectors
        alive, loads = [], []

        def read_and_watch(path, *, each):
            assert not loads, f"{path} was read after a table loaded"

            def watch(stack):
                assert all(ref() is None for ref in alive), "an earlier stack is alive"
                alive.append(weakref.ref(stack.data))
                each(stack)

            return read(path, each=watch)

        def load_and_count(path, *args, **kwargs):
            assert alive and all(ref() is None for ref in alive)
            loads.append(str(path))
            return load(path, *args, **kwargs)

        monkeypatch.setattr(bertfuse, "read_hs_file", read_and_watch)
        monkeypatch.setattr(wordvec, "load_text_vectors", load_and_count)
        config = write_config(pipeline, tmp_path / "run", dev_data=str(pipeline["data"]),
                              dev_features=str(pipeline["features"]),
                              embedding_tables=[{"path": str(pipeline["vectors"])},
                                                {"path": str(second)}])
        assert main(["train", "--config", str(config)]) == 0
        assert loads == [str(pipeline["vectors"]), str(second)] and len(alive) == 8

    def test_assembling_2n_records_peaks_within_n_fused_matrices_and_one_stack_of_n(
            self, pipeline, tmp_path):
        """tracemalloc's peak for 2N records exceeds its peak for N by at most the
        N more fused matrices plus one float64 stack: the container's stacks are
        not held together (with all of them held, it would be N stacks more)."""
        rng = np.random.default_rng(6)
        layers, seq_len, hidden, n = 24, 8, 64, 16
        stack_bytes = layers * seq_len * hidden * 8  # 98 KB
        fused_bytes = layers // 2 * 4 * hidden * 8  # 12 rows of 4 pooled blocks, 24.6 KB

        def peak(count):
            features = tmp_path / f"{count}.hs"
            write_hs_file((LayerStack(rng.uniform(-1, 1, (layers, seq_len, hidden))
                                      .astype(np.float32), id=str(i)) for i in range(count)),
                          features)
            records = [corpus.HeadlineRecord(str(i), "a <b/> c", "d", (1,), 1.0)
                       for i in range(count)]
            resolved = validate_runconfig(make_config(pipeline, tmp_path / "out",
                                                      branches="bert", features=str(features)))
            tracemalloc.start()
            try:
                (samples,), _ = pipeline_lib.assemble(resolved, [(records, str(features))])
                assert len(samples) == count
                assert samples[0][1][0].data.nbytes == fused_bytes
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2 * n) - peak(n) <= n * fused_bytes + stack_bytes

    def test_no_table_survives_to_training(self, pipeline, tmp_path, monkeypatch):
        load, train = wordvec.load_text_vectors, train_lib.train
        tables = []

        def load_and_watch(*args, **kwargs):
            table = load(*args, **kwargs)
            tables.append(weakref.ref(table))
            return table

        def train_after_the_tables_are_gone(*args, **kwargs):
            assert tables and all(ref() is None for ref in tables)
            return train(*args, **kwargs)

        monkeypatch.setattr(wordvec, "load_text_vectors", load_and_watch)
        monkeypatch.setattr(train_lib, "train", train_after_the_tables_are_gone)
        config = write_config(pipeline, tmp_path / "run", dev_data=str(pipeline["data"]),
                              dev_features=str(pipeline["features"]))
        assert main(["train", "--config", str(config)]) == 0

    def test_a_shared_embedder_gives_the_same_samples(self, pipeline, tmp_path):
        """A split embeds to the same bytes alone and after another split that
        used the same table load first, as the dev split follows the training split."""
        vectors = tmp_path / "half.txt"  # every other word is out of vocabulary
        vectors.write_text("\n".join(pipeline["vectors"].read_text().splitlines()[::2]) + "\n")
        resolved = validate_runconfig(make_config(pipeline, tmp_path / "out",
                                                  embedding_tables=[{"path": str(vectors)}],
                                                  oov={"kind": "seeded_uniform"}))
        records = corpus.parse_dataset(pipeline["data"])
        split = (records, resolved["features"])
        (alone,), _ = pipeline_lib.assemble(resolved, [split])
        (_, after), _ = pipeline_lib.assemble(resolved, [(records[2:], resolved["features"]),
                                                         split])
        stop = pipeline_lib.stoplist_from(resolved)
        assert any(t in VOCAB[1::2] for r in records
                   for t in corpus.prepare(r, "edited", stop, resolved["max_len"]).tokens)
        for (_, (_, a), _), (_, (_, b), _) in zip(alone, after, strict=True):
            assert a.data.tobytes() == b.data.tobytes()

    def test_no_records_give_no_samples(self, pipeline, tmp_path):
        resolved = validate_runconfig(make_config(pipeline, tmp_path / "out"))
        (samples,), dims = pipeline_lib.assemble(resolved, [([], resolved["features"])])
        assert samples == [] and dims["fused_width"] is None


class TestVectorTableTraps:
    """A malformed vector table exits 2 with one line naming its file and line."""

    CASES = {
        "empty_component_at_dim_1": (b"a 1\nb \n", "line 2: non-numeric component"),
        "a_space_alone_at_dim_1": (b"a 1\n \n", "line 2: non-numeric component"),
        "comment_sign": (b"a 1\nb 1#x\n", "line 2: non-numeric component"),
        "tab_separated": (b"a 1 2\nb 1\t2\n", "line 2: expected 2 components, found 1"),
        "digit_group_separator": (b"a 1 2\nb 1_0 2\n", "line 2: non-numeric component"),
        "non_ascii_digit": ("a 1 2\nb \uff11 2\n".encode(), "line 2: non-numeric component"),
        "infinity_before_a_count_error": (b"a 1 2\nb inf 2\nc 1\n",
                                         "line 2: non-finite component"),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_exits_2_naming_the_line(self, pipeline, tmp_path, capsys, name):
        raw, message = self.CASES[name]
        vectors = tmp_path / "bad.txt"
        vectors.write_bytes(raw)
        config = write_config(pipeline, tmp_path / "run",
                              embedding_tables=[{"path": str(vectors)}])
        assert main(["train", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {vectors} {message}\n"


@pytest.fixture(scope="module")
def trained(pipeline, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("trained")
    config = out_dir / "run.json"
    config.write_text(json.dumps(make_config(pipeline, out_dir)))
    assert main(["train", "--config", str(config)]) == 0
    return out_dir / "model.ckpt"


class TestEvaluate:
    def test_predictions_file_and_stdout(self, pipeline, trained, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        assert main(["evaluate", "--checkpoint", str(trained),
                     "--data", str(pipeline["data"]), "--out", str(preds)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("rmse ")
        assert "\nn 4" in stdout
        with open(preds, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["id"] for r in rows] == ["1", "2", "3", "4"]
        # printed rmse agrees with the per-row dump
        printed = float(stdout.split()[1])
        recomputed = math.sqrt(sum((float(r["yhat"]) - float(r["y"])) ** 2
                                   for r in rows) / len(rows))
        assert abs(printed - recomputed) < 1e-9

    def test_clamp_bounds_every_prediction(self, pipeline, trained, tmp_path, capsys):
        preds = tmp_path / "clamped.csv"
        assert main(["evaluate", "--checkpoint", str(trained),
                     "--data", str(pipeline["data"]), "--out", str(preds),
                     "--clamp"]) == 0
        capsys.readouterr()
        with open(preds, encoding="utf-8") as fh:
            assert all(0.0 <= float(r["yhat"]) <= 3.0 for r in csv.DictReader(fh))

    def test_single_sample_overfit_scores_near_zero(self, pipeline, tmp_path, capsys):
        data = tmp_path / "one.csv"
        write_dataset(data, ROWS[:1])
        out_dir = tmp_path / "overfit"
        config = tmp_path / "overfit.json"
        config.write_text(json.dumps(make_config(
            pipeline, out_dir, train_data=str(data),
            train={"epochs": 300, "batch_size": 1, "learning_rate": 0.01})))
        assert main(["train", "--config", str(config)]) == 0
        preds = tmp_path / "one_pred.csv"
        assert main(["evaluate", "--checkpoint", str(out_dir / "model.ckpt"),
                     "--data", str(data), "--out", str(preds)]) == 0
        stdout = capsys.readouterr().out
        rmse = float(stdout.splitlines()[-2].split()[1])
        assert rmse < 1e-3

    def test_checkpoint_without_manifest_is_rejected(self, pipeline, tmp_path, capsys):
        from iben.model import IbenModel, ModelConfig, save_checkpoint
        bare = tmp_path / "bare.ckpt"
        save_checkpoint(IbenModel(ModelConfig(emb_dim=4, hidden_size=2)), bare)
        assert main(["evaluate", "--checkpoint", str(bare),
                     "--data", str(pipeline["data"]),
                     "--out", str(tmp_path / "p.csv")]) == 1
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate, message", [
        (lambda h: h["params"].__setitem__(0, 7), "list of objects"),
        (lambda h: h["config"].__setitem__("kernel_sizes", 3), "kernel_sizes"),
        (lambda h: h.__setitem__("config", [1, 2]), "config is not a JSON object"),
        (lambda h: h["config"].__setitem__("kernel_sizes", [2, 2]), "must not repeat"),
        (lambda h: h.__setitem__("schema", 1), "schema 1, expected 2"),
        (lambda h: h["manifest"].__setitem__("max_len", 0), "embedded run manifest"),
        (lambda h: h.__setitem__("manifesx", h.pop("manifest")), "unknown checkpoint header"),
        (lambda h: next(e for e in h["params"] if e["name"] == "head.b").__setitem__("offset", 0),
         '{"name": "head.b", "offset": 0, "shape": [1]} does not match'),
        (lambda h: h["params"][0].__setitem__("offset", True),
         'entry 0 {"name": "branch_a.fwd.W", "offset": true,'),
        (lambda h: h["params"].__setitem__(slice(0, 2), h["params"][1::-1]),
         'entry 0 {"name": "branch_a.fwd.U", "offset": '),
        (lambda h: h.__setitem__("schema", 2.0), "schema 2.0, expected 2"),
        (lambda h: h.__setitem__("blob_bytes", float(h["blob_bytes"])), "blob_bytes declares"),
        (lambda h: h.__setitem__("seed", h["seed"] + 1), "checkpoint seed 2 is not"),
        (lambda h: h.pop("seed"), "checkpoint seed None is not"),
        (lambda h: h.__setitem__("seed", True), "checkpoint seed True is not"),
        (lambda h: h["manifest"]["train"].__setitem__("eps", math.inf),
         "Infinity is not a JSON number"),
        (lambda h: h["manifest"]["train"].__setitem__("learning_rate", math.nan),
         "NaN is not a JSON number"),
    ], ids=["param_entry_not_object", "kernel_sizes_not_list", "config_not_object",
            "repeated_kernel_sizes", "schema_1", "invalid_manifest", "unknown_header_key",
            "duplicated_offset", "boolean_offset", "swapped_entries", "float_schema",
            "float_blob_bytes", "other_seed", "missing_seed", "boolean_seed",
            "infinite_manifest_value", "nan_manifest_value"])
    def test_malformed_checkpoint_header_exits_2(self, pipeline, trained, tmp_path,
                                                 capsys, mutate, message):
        header_line, _, blob = trained.read_bytes().partition(b"\n")
        header = json.loads(header_line)
        mutate(header)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        assert main(["evaluate", "--checkpoint", str(bad), "--data", str(pipeline["data"]),
                     "--out", str(tmp_path / "p.csv")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err and "bad.ckpt" in err

    @pytest.mark.parametrize("hidden_size, message", [
        (2.5, "hidden_size must be a positive integer"), (100000, "config needs"),
    ], ids=["non_integer", "larger_than_the_blob"])
    def test_checkpoint_config_is_checked_before_the_model_is_built(
            self, pipeline, trained, tmp_path, capsys, monkeypatch, hidden_size, message):
        header_line, _, blob = trained.read_bytes().partition(b"\n")
        header = json.loads(header_line)
        header["config"]["hidden_size"] = hidden_size
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + blob)

        def refuse(config):
            raise AssertionError("the model was built from an unchecked config")

        monkeypatch.setattr(model_lib, "IbenModel", refuse)
        assert main(["evaluate", "--checkpoint", str(bad), "--data", str(pipeline["data"]),
                     "--out", str(tmp_path / "p.csv")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err and "bad.ckpt" in err

    def test_features_of_another_width_name_the_container(self, pipeline, trained, tmp_path,
                                                          capsys, setup_calls):
        wide = tmp_path / "wide.hs"
        assert main(["pseudo-encode", "--tokens", str(pipeline["tokens"]), "--layers", "4",
                     "--hidden", "8", "--seed", "1", "--out", str(wide)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(trained), "--data", str(pipeline["data"]),
                     "--features", str(wide), "--out", str(tmp_path / "p.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {wide}: records fuse to 2x32, the model takes 2x16\n"
        assert "load_text_vectors" not in setup_calls

    def test_tables_of_another_width_are_named(self, pipeline, tmp_path, capsys, setup_calls):
        vectors = write_vectors(tmp_path / "vectors.txt")
        out_dir = tmp_path / "run"
        config = write_config(pipeline, out_dir, embedding_tables=[{"path": str(vectors)}])
        assert main(["train", "--config", str(config)]) == 0
        write_vectors(vectors, dim=5)
        capsys.readouterr()
        setup_calls.clear()
        assert main(["evaluate", "--checkpoint", str(out_dir / "model.ckpt"),
                     "--data", str(pipeline["data"]), "--out", str(tmp_path / "p.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: embedding tables {vectors}: 5 columns, the model takes 4\n"
        assert setup_calls[-1] == "load_text_vectors" and "build_matrix" not in setup_calls

    def test_container_payload_beyond_the_file_exits_2(self, pipeline, tmp_path, capsys):
        features = tmp_path / "short.hs"
        raw = pipeline["features"].read_bytes()
        id_len = struct.unpack_from("<I", raw, 12)[0]
        dims_at = 16 + id_len
        features.write_bytes(raw[:dims_at] + struct.pack("<III", 2048, 2048, 2048)
                             + raw[dims_at + 12:])
        config = write_config(pipeline, tmp_path / "short_run", features=str(features))
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "short.hs: record index 0" in err

    def test_non_utf8_container_id_exits_2(self, pipeline, tmp_path, capsys):
        features = tmp_path / "bad_id.hs"
        raw = pipeline["features"].read_bytes()
        id_len = struct.unpack_from("<I", raw, 12)[0]  # after the magic and count
        features.write_bytes(raw[:16] + b"\xff" * id_len + raw[16 + id_len:])
        config = write_config(pipeline, tmp_path / "bad_id_run", features=str(features))
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "record index 0" in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("last", [False, True], ids=["first_parameter", "last_parameter"])
    def test_a_non_finite_weight_exits_2_naming_the_parameter(self, pipeline, trained,
                                                               tmp_path, capsys, bad, last):
        header_line, _, blob = trained.read_bytes().partition(b"\n")
        name = json.loads(header_line)["params"][-1 if last else 0]["name"]
        weights = np.frombuffer(blob, dtype="<f8").copy()
        weights[-1 if last else 0] = bad
        bad_ckpt = tmp_path / "bad.ckpt"
        bad_ckpt.write_bytes(header_line + b"\n" + weights.tobytes())
        preds = tmp_path / "p.csv"
        assert main(["evaluate", "--checkpoint", str(bad_ckpt), "--data", str(pipeline["data"]),
                     "--out", str(preds)]) == 2
        assert capsys.readouterr().err == (f"error: {bad_ckpt}: parameter {name} holds a "
                                           f"non-finite weight\n")
        assert not preds.exists()

    def test_missing_checkpoint_exits_2(self, pipeline, tmp_path):
        assert main(["evaluate", "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--data", str(pipeline["data"]),
                     "--out", str(tmp_path / "p.csv")]) == 2


class TestRunSettings:
    """Branch and stoplist settings through ``iben train`` and ``iben evaluate``."""

    def train_and_evaluate(self, pipeline, out_dir, monkeypatch, **overrides) -> tuple:
        """Run ``iben train`` and then ``iben evaluate``, both to exit 0, with
        these config overrides; returns the checkpoint's model config and the
        tokens that ``corpus.prepare`` gave in training."""
        seen = []
        prepare = corpus.prepare

        def recording(*args, **kwargs):
            seq = prepare(*args, **kwargs)
            seen.append(seq.tokens)
            return seq

        config = write_config(pipeline, out_dir, **overrides)
        with monkeypatch.context() as patch:
            patch.setattr(corpus, "prepare", recording)
            assert main(["train", "--config", str(config)]) == 0
        assert main(["evaluate", "--checkpoint", str(out_dir / "model.ckpt"),
                     "--data", str(pipeline["data"]), "--out", str(out_dir / "preds.csv")]) == 0
        with open(out_dir / "preds.csv", encoding="utf-8") as fh:
            assert [row["id"] for row in csv.DictReader(fh)] == ["1", "2", "3", "4"]
        return model_lib.load_checkpoint(out_dir / "model.ckpt").config, seen

    @pytest.mark.parametrize("with_features", [True, False])
    def test_the_word_vector_branch_alone(self, pipeline, tmp_path, monkeypatch,
                                          with_features):
        overrides = {"branches": "emb"}
        if not with_features:
            overrides["features"] = None
        config, tokens = self.train_and_evaluate(pipeline, tmp_path / "emb", monkeypatch,
                                                 **overrides)
        assert (config.use_bert_branch, config.use_emb_branch) == (False, True)
        assert len(tokens) == 4

    def test_the_encoder_branch_alone_needs_no_table(self, pipeline, tmp_path, monkeypatch):
        config, tokens = self.train_and_evaluate(pipeline, tmp_path / "bert", monkeypatch,
                                                 branches="bert", embedding_tables=[])
        assert (config.use_bert_branch, config.use_emb_branch) == (True, False)
        assert tokens == []

    def test_the_stoplist_settings_change_the_tokens(self, pipeline, tmp_path, monkeypatch):
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("# only these\nsenate\ncity\n", encoding="utf-8")
        runs = {}
        for name, overrides in (("bundled", {}), ("kept", {"remove_stopwords": False}),
                                ("custom", {"stopwords": str(stopwords)})):
            config, runs[name] = self.train_and_evaluate(
                pipeline, tmp_path / name, monkeypatch, max_len=12, **overrides)
            assert (config.use_bert_branch, config.use_emb_branch) == (True, True)
        words = {name: {t for seq in tokens for t in seq} for name, tokens in runs.items()}
        assert {"to", "his", "about"} <= words["kept"] - words["bundled"]
        assert {"to", "his", "about"} <= words["custom"]
        assert not {"senate", "city"} & words["custom"]
        assert {"senate", "city"} <= words["bundled"] & words["kept"]


class TestNonUtf8Input:
    """Every text reader names the file and line of bytes that are not UTF-8."""

    @staticmethod
    def corrupt(src, dst, line_no):
        lines = src.read_bytes().splitlines(keepends=True)
        lines[line_no - 1] = b"\xff" + lines[line_no - 1][1:]
        dst.write_bytes(b"".join(lines))
        return dst

    def run(self, pipeline, tmp_path, reader):
        root = pipeline["root"]
        if reader == "dataset":
            data = self.corrupt(pipeline["data"], tmp_path / "bad.csv", 3)
            return ["stats", "--data", str(data)], "bad.csv line 3"
        if reader == "vectors":
            vectors = self.corrupt(pipeline["vectors"], tmp_path / "bad.txt", 2)
            config = write_config(pipeline, tmp_path / "run",
                                  embedding_tables=[{"path": str(vectors)}])
            return ["train", "--config", str(config)], "bad.txt line 2"
        if reader == "run_config":
            good = write_config(pipeline, tmp_path / "run")
            config = self.corrupt(good, tmp_path / "bad.json", 1)
            return ["train", "--config", str(config)], "bad.json line 1"
        if reader == "token_file":
            tokens = self.corrupt(pipeline["tokens"], tmp_path / "bad.tsv", 4)
            return ["pseudo-encode", "--tokens", str(tokens), "--layers", "2",
                    "--hidden", "2", "--out", str(tmp_path / "o.hs")], "bad.tsv line 4"
        stop = tmp_path / "bad.stop"
        stop.write_bytes(b"the\nof\nwh\xffre\n")
        return ["preprocess", "--data", str(root / "data.csv"), "--variant", "edited",
                "--stopwords", str(stop), "--out", str(tmp_path / "t.tsv")], "bad.stop line 3"

    @pytest.mark.parametrize("reader", ["dataset", "vectors", "run_config", "token_file",
                                        "stoplist"])
    def test_exits_2_naming_the_file_and_line(self, pipeline, tmp_path, capsys, reader):
        argv, where = self.run(pipeline, tmp_path, reader)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{where}: not valid UTF-8" in err


class TestBaseline:
    def test_sqrt_two_case(self, tmp_path, capsys):
        train_csv = write_dataset(tmp_path / "train.csv", [
            ("1", "Budget <deal/> reached", "pact", "00000", "0.0"),
            ("2", "City opens <bridge/>", "zoo", "22222", "2.0"),
        ])
        eval_csv = write_dataset(tmp_path / "eval.csv", [
            ("3", "Senate <votes/> today", "dances", "11111", "1.0"),
            ("4", "Officials <warn/> media", "sing", "33333", "3.0"),
        ])
        assert main(["baseline", "--train", str(train_csv),
                     "--eval", str(eval_csv)]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == f"rmse {math.sqrt(2.0):.10f}"

    @pytest.mark.parametrize("empty_split, what", [("--train", "training"),
                                                   ("--eval", "evaluation")])
    def test_empty_split_exits_1_naming_the_file(self, pipeline, tmp_path, capsys,
                                                 empty_split, what):
        empty = write_dataset(tmp_path / "empty.csv", rows=[])
        argv = {"--train": str(pipeline["data"]), "--eval": str(pipeline["data"])}
        argv[empty_split] = str(empty)
        assert main(["baseline", *(item for pair in argv.items() for item in pair)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {empty}: {what} set is empty\n"


class TestGradcheck:
    @pytest.mark.parametrize("dims", ["small", "default"])
    def test_dims_pass(self, capsys, dims):
        assert main(["gradcheck", "--dims", dims]) == 0
        out = capsys.readouterr().out
        for name in ("matmul", "sigmoid", "conv1d_k1", "max_over_time",
                     "gru_cell", "bi_gru", "model_full", "gru_sequence",
                     "gru_sequence_rev", "gru_sequence_batch", "conv1d_batch", "scale_rows",
                     "bi_gru_sequence"):
            assert name in out
        assert "FAIL" not in out

    def test_threshold_violation_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "GRADCHECK_THRESHOLD", 1e-30)
        assert main(["gradcheck", "--dims", "small"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "exceeded" in captured.err

    def test_unknown_dims_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            cli.gradcheck_report("enormous")
