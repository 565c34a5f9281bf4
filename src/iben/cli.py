"""Command-line surface for the headline-funniness pipeline.

Subcommands: preprocess, stats, pseudo-encode, train, evaluate, baseline,
gradcheck.  Exit codes are a stable scripting contract: 0 success,
1 validation or check failure, 2 I/O or format error.
"""

from __future__ import annotations

import argparse
import copy
import importlib.resources
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import autodiff as ad
from . import bertfuse, corpus, pipeline, wordvec
from . import model as model_lib
from . import train as train_lib
from .autodiff import Parameter, Tensor
from .corpus import PAD_TOKEN, TokenSequence
from .errors import (ConfigError, DataFormatError, IbenError, open_replacing, open_text,
                     refuse_json_constant)

GRADCHECK_THRESHOLD = 1e-4


# ---------------------------------------------------------------------------
# run configuration

def runconfig_schema() -> dict:
    text = importlib.resources.files("iben").joinpath(
        "data/runconfig_schema.json").read_text(encoding="utf-8")
    return json.loads(text)


def _fill_defaults(value: dict, node: dict) -> dict:
    """Populate missing keys from the schema's declared defaults."""
    out = dict(value)
    for key, sub in node.get("properties", {}).items():
        if key not in out and "default" in sub:
            out[key] = copy.deepcopy(sub["default"])
        if key in out and isinstance(out[key], dict) and "properties" in sub:
            out[key] = _fill_defaults(out[key], sub)
        if key in out and isinstance(out[key], list) and isinstance(sub.get("items"), dict):
            out[key] = [
                _fill_defaults(v, sub["items"]) if isinstance(v, dict) else v
                for v in out[key]
            ]
    return out


def _schema_errors(schema, document) -> str | None:
    errors = sorted(jsonschema.Draft202012Validator(schema).iter_errors(document),
                    key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    spots = []
    for e in errors[:5]:
        where = "/".join(str(p) for p in e.absolute_path) or "<root>"
        spots.append(f"{where}: {e.message}")
    return "; ".join(spots)


def _non_finite_numbers(value, path=""):
    """(key path, number) for each non-finite float in a JSON document."""
    if isinstance(value, float) and not math.isfinite(value):
        yield path, value
    elif isinstance(value, (dict, list)):
        for key, sub in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _non_finite_numbers(sub, f"{path}/{key}" if path else str(key))


def validate_runconfig(raw) -> dict:
    """Schema-check a raw config and return it with defaults applied.

    Every schema keyword constrains one value, and every default is valid
    where it is declared, so the resolved echo written next to a checkpoint
    is valid too.  It may hold no non-finite number: ``json`` reads
    ``1e999`` as ``inf``.
    """
    if not isinstance(raw, dict):
        raise ConfigError("run config must be a JSON object")
    schema = runconfig_schema()
    problem = _schema_errors(schema, raw)
    if problem:
        raise ConfigError(f"run config rejected: {problem}")
    resolved = _fill_defaults(raw, schema)
    problem = "; ".join(f"{path}: {number!r} is not a finite number"
                        for path, number in _non_finite_numbers(resolved))
    if problem:
        raise ConfigError(f"run config rejected: {problem}")

    use_bert = resolved["branches"] in ("bert", "both")
    use_emb = resolved["branches"] in ("emb", "both")
    if use_bert and not resolved["features"]:
        raise ConfigError("encoder branch enabled but no 'features' file given")
    if use_bert and resolved["dev_data"] and not resolved["dev_features"]:
        raise ConfigError("dev_data needs dev_features when the encoder branch is on")
    if use_emb and not resolved["embedding_tables"]:
        raise ConfigError("word-vector branch enabled but 'embedding_tables' is empty")
    if resolved["learn_layer_weights"]:
        if resolved["layer_weights"] is not None:
            raise ConfigError("'layer_weights' and 'learn_layer_weights' are mutually exclusive")
        if resolved["fusion_mode"] != "layer_sequence":
            raise ConfigError("learnable layer weights need fusion_mode 'layer_sequence'")
    layers, weights = resolved["layers"], resolved["layer_weights"]
    if use_bert and layers is not None:
        if len(layers) % 2:
            raise ConfigError(f"layers: {len(layers)} indices do not pair; fusion needs an "
                              f"even count")
        if len(set(layers)) != len(layers):
            raise ConfigError(f"layers: an index repeats in {layers}")
        if weights is not None and 2 * len(weights) != len(layers):
            raise ConfigError(f"layer_weights: {len(weights)} weights for the "
                              f"{len(layers) // 2} pairs of layers")
    if use_emb:
        try:
            wordvec.OovPolicy(**resolved["oov"])
        except ValueError as exc:
            raise ConfigError(f"oov: {exc}") from None
        if resolved["emb_submodel"] != "bigru" and resolved["max_len"] < max(
                resolved["kernel_sizes"]):
            raise ConfigError(f"max_len: {resolved['max_len']} is below the largest "
                              f"kernel_sizes entry, {max(resolved['kernel_sizes'])}")
    return resolved


def _load_json(path):
    try:
        with open_text(path) as fh:
            return json.load(fh, parse_constant=refuse_json_constant)
    except ValueError as exc:  # a JSONDecodeError, or a NaN or Infinity literal
        raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise DataFormatError(f"{path}: JSON nested too deeply to read") from exc


# ---------------------------------------------------------------------------
# set-up names bench/run.py calls; deleted once it imports iben.pipeline (ROADMAP item 1b)

_stoplist_from = pipeline.stoplist_from
_embedder_from = pipeline.embedder_from
_model_config_from = pipeline.model_config_from


def _assemble_samples(records, resolved, features_path):
    (samples,), dims = pipeline.assemble(resolved, [(records, features_path)])
    return samples, dims


# ---------------------------------------------------------------------------
# token files (TSV: id TAB space-joined tokens; or JSON lines)

def _replace_text(path, lines) -> None:
    """Write ``lines``, each ended with a newline, to ``path`` as UTF-8; the
    file replaces ``path`` only once it is complete (:func:`open_replacing`)."""
    with open_replacing(path) as fh:
        for line in lines:
            fh.write(f"{line}\n".encode("utf-8"))


def _write_token_file(sequences, path, jsonl: bool) -> None:
    _replace_text(path, (json.dumps({"id": record_id, "tokens": list(seq.tokens)}, sort_keys=True)
                         if jsonl else f"{record_id}\t{' '.join(seq.tokens)}"
                         for record_id, seq in sequences))


def _is_text(value) -> bool:
    """A str that UTF-8 can encode; JSON can spell a lone surrogate, which it cannot."""
    if not isinstance(value, str):
        return False
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _read_token_file(path, jsonl: bool) -> list[tuple[str, list[str]]]:
    """(id, tokens) rows; each row must hold a token other than the pad token,
    and no two rows may share an id."""
    rows = []
    first_line: dict[str, int] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if jsonl:
                try:
                    obj = json.loads(line)
                except (json.JSONDecodeError, RecursionError) as exc:
                    raise DataFormatError(f"{path} line {lineno}: bad token row ({exc})") from exc
                if not isinstance(obj, dict):
                    obj = {}
                record_id, tokens = obj.get("id"), obj.get("tokens")
                if not (_is_text(record_id) and isinstance(tokens, list)
                        and all(_is_text(t) for t in tokens)):
                    raise DataFormatError(f"{path} line {lineno}: a token row needs a string "
                                          f"'id' and a list of strings 'tokens'")
            else:
                if "\t" not in line:
                    raise DataFormatError(f"{path} line {lineno}: expected id<TAB>tokens")
                record_id, _, token_str = line.partition("\t")
                tokens = token_str.split(" ") if token_str else []
            if all(t == PAD_TOKEN for t in tokens):
                raise DataFormatError(f"{path} line {lineno}: row {record_id!r} has no token "
                                      f"other than {PAD_TOKEN}")
            if record_id in first_line:
                raise DataFormatError(f"{path} line {lineno}: id {record_id!r} repeats the id "
                                      f"of line {first_line[record_id]}")
            first_line[record_id] = lineno
            rows.append((record_id, tokens))
    return rows


# ---------------------------------------------------------------------------
# subcommands

def _parse_split(path, split: str) -> list[corpus.HeadlineRecord]:
    """The records of a dataset CSV that must hold at least one."""
    records = corpus.parse_dataset(path)
    if not records:
        raise ConfigError(f"{path}: {split} set is empty")
    return records


def cmd_preprocess(args) -> int:
    records = corpus.parse_dataset(args.data)
    stop = (corpus.StopList.from_file(args.stopwords) if args.stopwords
            else corpus.default_stoplist())
    if not args.jsonl:
        for r in records:
            if any(c in r.id for c in "\t\n\r"):
                raise DataFormatError(f"{args.data}: record id {r.id!r} holds a tab or line "
                                      f"break, which a TSV token file cannot carry; use --jsonl")
    sequences = [(r.id, corpus.prepare(r, args.variant, stop, args.max_len))
                 for r in records]
    _write_token_file(sequences, args.out, args.jsonl)
    print(f"records {len(sequences)}")
    return 0


def cmd_stats(args) -> int:
    records = corpus.parse_dataset(args.data)
    bins = corpus.grade_histogram(records, args.bin_width)
    print("bin,count")
    for left, count in bins:
        print(f"{left:.10g},{count}")
    print(f"total,{len(records)}")
    return 0


def cmd_pseudo_encode(args) -> int:
    rows = _read_token_file(args.tokens, args.jsonl)
    bertfuse.write_hs_file((bertfuse.pseudo_encode(TokenSequence(tuple(tokens)), args.layers,
                                                   args.hidden, args.seed, stack_id=record_id)
                            for record_id, tokens in rows), args.out)
    print(f"stacks {len(rows)}")
    return 0


def cmd_train(args) -> int:
    raw = _load_json(args.config)
    if isinstance(raw, dict):
        # command-line overrides beat config-file keys
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.out_dir is not None:
            raw["out_dir"] = args.out_dir
        section = raw.setdefault("train", {})
        if isinstance(section, dict):  # any other value is the schema's to refuse
            if args.epochs is not None:
                section["epochs"] = args.epochs
            if args.learning_rate is not None:
                section["learning_rate"] = args.learning_rate
    resolved = validate_runconfig(raw)

    splits = [(_parse_split(resolved["train_data"], "training"), resolved["features"])]
    if resolved["dev_data"]:
        splits.append((_parse_split(resolved["dev_data"], "dev"), resolved["dev_features"]))
    assembled, dims = pipeline.assemble(resolved, splits)
    dataset = [(inputs, target) for _, inputs, target in assembled[0]]

    net = model_lib.IbenModel(pipeline.model_config_from(resolved, dims))
    train_config = train_lib.TrainConfig(seed=resolved["seed"], **resolved["train"])

    dev_rmse: list[float] = []

    def callback(epoch, current):
        report = train_lib.evaluate_model(current, assembled[1], clamp=resolved["clamp"])
        dev_rmse.append(report.rmse)

    history = train_lib.train(net, dataset, train_config,
                              epoch_callback=callback if resolved["dev_data"] else None)

    out_dir = Path(resolved["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "model.ckpt"
    model_lib.save_checkpoint(net, ckpt_path, manifest=resolved)
    _replace_text(out_dir / "history.csv",
                  ["epoch,train_loss,dev_rmse" if dev_rmse else "epoch,train_loss"]
                  + [f"{i + 1},{loss:.10f}" + (f",{dev_rmse[i]:.10f}" if dev_rmse else "")
                     for i, loss in enumerate(history)])
    _replace_text(out_dir / "config.resolved.json",
                  [json.dumps(resolved, indent=2, sort_keys=True)])

    print(f"checkpoint {ckpt_path}")
    print(f"final_train_loss {history[-1]:.10f}")
    if dev_rmse:
        print(f"final_dev_rmse {dev_rmse[-1]:.10f}")
    return 0


def cmd_evaluate(args) -> int:
    net = model_lib.load_checkpoint(args.checkpoint)
    manifest = model_lib.checkpoint_manifest(args.checkpoint)
    if manifest is None:
        raise ConfigError(
            f"{args.checkpoint}: no embedded run manifest; cannot rebuild input features")
    try:
        resolved = validate_runconfig(manifest)
    except ConfigError as exc:
        raise DataFormatError(f"{args.checkpoint}: embedded run manifest: {exc}") from exc
    features = args.features if args.features else resolved["features"]

    records = _parse_split(args.data, "evaluation")
    widths = {f: getattr(net.config, f) for f in ("n_pairs", "fused_width", "emb_dim")}
    (samples,), _ = pipeline.assemble(resolved, [(records, features)], widths)
    report = train_lib.evaluate_model(net, samples, clamp=args.clamp)

    _replace_text(args.out, ["id,y,yhat"] + [f"{record_id},{target:.10f},{pred:.10f}"
                                             for record_id, target, pred in report.rows])
    print(f"rmse {report.rmse:.10f}")
    print(f"n {report.n}")
    return 0


def cmd_baseline(args) -> int:
    train_records = _parse_split(args.train, "training")
    eval_records = _parse_split(args.eval, "evaluation")
    rmse = train_lib.baseline_rmse(train_records, eval_records)
    print(f"rmse {rmse:.10f}")
    return 0


# ---------------------------------------------------------------------------
# gradient checking

_GRADCHECK_DIMS = {
    "small": dict(T=5, D=4, H=3, pairs=2, stack_hidden=4, emb_len=6,
                  kernels=(1, 2, 3, 4), filters=2, dense=3),
    "default": dict(T=8, D=8, H=6, pairs=3, stack_hidden=8, emb_len=10,
                    kernels=(1, 2, 3, 4), filters=3, dense=8),
}


def _away_from_kink(x: np.ndarray, margin: float = 0.3) -> np.ndarray:
    sign = np.where(x >= 0, 1.0, -1.0)
    return x + margin * sign


def _widen_max_margin(x: np.ndarray, bump: float = 0.05) -> np.ndarray:
    out = x.copy()
    top = out.argmax(axis=0)
    for col, row in enumerate(top):
        out[row, col] += bump
    return out


def gradcheck_report(dims: str = "small", seed: int = 0) -> list[tuple[str, float]]:
    """Worst finite-difference relative error per component."""
    if dims not in _GRADCHECK_DIMS:
        raise ValueError(f"unknown dims {dims!r}")
    d = _GRADCHECK_DIMS[dims]
    rng = np.random.default_rng(seed)
    report: list[tuple[str, float]] = []

    def check(name, fn, params):
        report.append((name, ad.grad_check(fn, params)))

    a = Parameter(rng.normal(size=(3, 4)), name="a")
    b = Parameter(rng.normal(size=(4, 2)), name="b")
    check("matmul", lambda: ad.total(ad.matmul(a, b)), [a, b])

    v = Parameter(rng.normal(size=7), name="v")
    check("sigmoid", lambda: ad.total(ad.sigmoid(v)), [v])
    check("tanh", lambda: ad.total(ad.tanh(v)), [v])

    r = Parameter(_away_from_kink(rng.normal(size=9)), name="r")
    check("relu", lambda: ad.total(ad.relu(r)), [r])

    e1 = Parameter(rng.normal(size=6), name="e1")
    e2 = Parameter(rng.normal(size=6), name="e2")
    check("elementwise_mix",
          lambda: ad.total(ad.hadamard(ad.sigmoid(e1), ad.tanh(e2))), [e1, e2])

    for k in d["kernels"]:
        x = Parameter(rng.normal(size=(d["T"], d["D"])), name=f"x{k}")
        kern = Parameter(rng.normal(size=(d["filters"], k, d["D"])), name=f"k{k}")
        bias = Parameter(rng.normal(size=d["filters"]), name=f"cb{k}")
        check(f"conv1d_k{k}",
              lambda x=x, kern=kern, bias=bias: ad.total(ad.conv1d(x, kern, bias)),
              [x, kern, bias])

    m = Parameter(_widen_max_margin(rng.normal(size=(6, 4))), name="m")
    check("max_over_time", lambda: ad.total(ad.max_over_time(m)), [m])
    check("avg_over_time", lambda: ad.total(ad.avg_over_time(m)), [m])

    cell = model_lib.GruCell(d["D"], d["H"], "gc", rng)
    xg = Parameter(rng.normal(size=d["D"]), name="xg")
    hg = Parameter(rng.normal(size=d["H"]), name="hg")
    check("gru_cell", lambda: ad.total(cell.step(xg, hg)),
          cell.parameters() + [xg, hg])

    bg = model_lib.BiGru(d["D"], d["H"], "bg", rng)
    seq = Parameter(rng.normal(size=(d["T"], d["D"])), name="seq")
    check("bi_gru",
          lambda: ad.total(model_lib.pool_states(model_lib.bi_gru(seq, bg))),
          bg.parameters() + [seq])

    config = model_lib.ModelConfig(
        fused_width=4 * d["stack_hidden"], n_pairs=d["pairs"], emb_dim=d["D"],
        hidden_size=d["H"], dense_size=d["dense"], kernel_sizes=d["kernels"],
        filters_per_kernel=d["filters"], seed=seed)
    net = model_lib.IbenModel(config)
    fused = rng.normal(size=(d["pairs"], 4 * d["stack_hidden"]))
    emb = rng.normal(size=(d["emb_len"], d["D"]))
    check("model_full", lambda: net.forward(fused=fused, emb=emb), net.parameters())

    # the reversed run is also the bias-free one
    for use_bias, reverse, name in ((True, False, "gru_sequence"),
                                    (False, True, "gru_sequence_rev")):
        gc = model_lib.GruCell(d["D"], d["H"], name, rng, use_bias)
        xs = Parameter(rng.normal(size=(d["T"], d["D"])), name=f"{name}.x")
        h0 = Parameter(rng.uniform(-1.0, 1.0, d["H"]), name=f"{name}.h0")
        weights = Tensor(rng.normal(size=(d["T"], d["H"])))
        check(name,
              lambda gc=gc, xs=xs, h0=h0, weights=weights, reverse=reverse: ad.total(
                  ad.hadamard(ad.gru_sequence(xs, gc.parameters(), h0, reverse), weights)),
              gc.parameters() + [xs, h0])

    batch = model_lib.GruCell(d["D"], d["H"], "gru_sequence_batch", rng)
    xb = Parameter(rng.normal(size=(3, d["T"], d["D"])), name="gru_sequence_batch.x")
    hb = Parameter(rng.uniform(-1.0, 1.0, (3, d["H"])), name="gru_sequence_batch.h0")
    wb = Tensor(rng.normal(size=(3, d["T"], d["H"])))
    check("gru_sequence_batch",
          lambda: ad.total(ad.hadamard(ad.gru_sequence(xb, batch.parameters(), hb, True), wb)),
          batch.parameters() + [xb, hb])

    k = max(d["kernels"])
    xc = Parameter(rng.normal(size=(3, d["T"], d["D"])), name="conv1d_batch.x")
    kern = Parameter(rng.normal(size=(d["filters"], k, d["D"])), name="conv1d_batch.k")
    bias = Parameter(rng.normal(size=d["filters"]), name="conv1d_batch.b")
    wc = Tensor(rng.normal(size=(3, d["T"] - k + 1, d["filters"])))
    check("conv1d_batch", lambda: ad.total(ad.hadamard(ad.conv1d(xc, kern, bias), wc)),
          [xc, kern, bias])

    rows = Parameter(rng.normal(size=(d["pairs"], d["D"])), name="rows")
    row_weights = Parameter(rng.normal(size=d["pairs"]), name="row_weights")
    check("scale_rows", lambda: ad.total(ad.tanh(ad.scale_rows(rows, row_weights))),
          [rows, row_weights])

    pair = model_lib.BiGru(d["D"], d["H"], "bi_gru_sequence", rng)
    xp = Parameter(rng.normal(size=(3, d["T"], d["D"])), name="bi_gru_sequence.x")
    wp = Tensor(rng.normal(size=(3, d["T"], 2 * d["H"])))
    check("bi_gru_sequence",
          lambda: ad.total(ad.hadamard(
              ad.bi_gru_sequence(xp, pair.fwd.parameters(), pair.bwd.parameters()), wp)),
          pair.parameters() + [xp])

    # rows grow twofold and each filter keeps one sign: no feature is near a relu or max kink
    T, F, D = d["T"], d["filters"], d["D"]
    xk = Parameter(2.0 ** np.arange(T)[:, None] * rng.uniform(0.75, 1, (3, T, D)), "conv_bank.x")
    kk = [Parameter((-1.0) ** np.arange(F)[:, None, None] * rng.uniform(0.5, 1.5, (F, k, D)),
                    f"conv_bank.k{k}") for k in d["kernels"]]
    bk = [Parameter(rng.uniform(-0.1, 0.1, F), f"conv_bank.b{k}") for k in d["kernels"]]
    check("conv_bank", lambda: ad.total(ad.conv_bank(xk, kk, bk)), [xk] + kk + bk)

    return report


def cmd_gradcheck(args) -> int:
    report = gradcheck_report(args.dims, seed=args.seed)
    failed = False
    for name, err in report:
        ok = err <= GRADCHECK_THRESHOLD
        failed = failed or not ok
        print(f"{name:<18} {err:.3e} {'ok' if ok else 'FAIL'}")
    if failed:
        print(f"error: a component exceeded {GRADCHECK_THRESHOLD:g}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iben",
        description="Regress the funniness of micro-edited news headlines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="CSV -> token file")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", choices=("original", "edited"), required=True)
    p.add_argument("--stopwords", help="stoplist file (default: bundled list)")
    p.add_argument("--max-len", type=int, default=corpus.DEFAULT_MAX_LEN)
    p.add_argument("--out", required=True)
    p.add_argument("--jsonl", action="store_true", help="JSON lines instead of TSV")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("stats", help="mean-grade histogram as CSV on stdout")
    p.add_argument("--data", required=True)
    p.add_argument("--bin-width", type=float, default=0.2)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("pseudo-encode", help="token file -> hidden-state container")
    p.add_argument("--tokens", required=True)
    p.add_argument("--layers", type=int, default=24)
    p.add_argument("--hidden", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--jsonl", action="store_true", help="token file is JSON lines")
    p.set_defaults(func=cmd_pseudo_encode)

    p = sub.add_parser("train", help="fit a model from a JSON run config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--epochs", type=int, help="override train.epochs")
    p.add_argument("--learning-rate", type=float, help="override train.learning_rate")
    p.add_argument("--out-dir", help="override out_dir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--features", help="hidden-state file for --data "
                                      "(default: the one in the checkpoint manifest)")
    p.add_argument("--clamp", action="store_true", help="bound predictions to [0, 3]")
    p.add_argument("--out", default="predictions.csv", help="predictions CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="constant mean-grade predictor RMSE")
    p.add_argument("--train", required=True)
    p.add_argument("--eval", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("gradcheck", help="finite-difference check of every component")
    p.add_argument("--dims", choices=("small", "default"), default="small")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IbenError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
