"""Run set-up: a resolved run config and its dataset splits to model inputs.

Callees are reached through their module and class attributes, not ``from``
imports, so that a wrapper installed on those attributes sees every call.
"""

from __future__ import annotations

import dataclasses

from . import bertfuse, corpus, wordvec
from . import model as model_lib
from .errors import ConfigError


def stoplist_from(resolved) -> corpus.StopList | None:
    if not resolved["remove_stopwords"]:
        return None
    if resolved["stopwords"]:
        return corpus.StopList.from_file(resolved["stopwords"])
    return corpus.default_stoplist()


def embedder_from(resolved) -> wordvec.UnifiedEmbedder:
    tables = [wordvec.load_text_vectors(e["path"], format=e["format"], name=e["name"] or "")
              for e in resolved["embedding_tables"]]
    return wordvec.UnifiedEmbedder(tables, wordvec.OovPolicy(**resolved["oov"]))


def _fusion_plan(resolved, n_layers, features_path):
    """The pairing, in the container's layer numbers, and the pair weights that
    the run config gives records of ``n_layers`` layers."""
    layers = range(1, n_layers + 1) if resolved["layers"] is None else resolved["layers"]
    if max(layers) > n_layers:
        raise ConfigError(f"{features_path}: layers names layer {max(layers)}, "
                          f"its records hold {n_layers}")
    if len(layers) % 2:
        raise ConfigError(f"{features_path}: its records hold {n_layers} layers, an odd "
                          f"count; set layers to an even count of them")
    positions = (bertfuse.adjacent_pairing if resolved["pairing"] == "adjacent"
                 else bertfuse.listed_pairing)(len(layers)).pairs
    pairing = bertfuse.LayerPairing(tuple((layers[a - 1], layers[b - 1]) for a, b in positions))
    weights = resolved["layer_weights"]
    if weights is not None and len(weights) != len(pairing):
        raise ConfigError(f"{features_path}: {len(weights)} layer_weights for the "
                          f"{len(pairing)} layer pairs of its records")
    return pairing, weights or bertfuse.uniform_weights(len(pairing))


def _fuse_records(records, resolved, features_path) -> list[bertfuse.FusedSequence]:
    """Each record's fused layer stack, in record order.

    The container is read one record at a time, and each record the split
    uses is fused as it is read and then dropped, so one float64 stack is
    held at a time.  The fusion plan comes from the run config and the
    container's first record; every later record must hold that record's
    layer count and width.
    """
    slots: dict[str, list[int]] = {}
    for i, r in enumerate(records):
        slots.setdefault(r.id, []).append(i)
    fused: list = [None] * len(records)
    dims = pairing = weights = None  # the first record's (layers, width) and its plan

    def fuse_record(s):
        nonlocal dims, pairing, weights
        if dims is None:
            dims = (s.n_layers, s.hidden)
            pairing, weights = _fusion_plan(resolved, s.n_layers, features_path)
        if (s.n_layers, s.hidden) != dims:
            raise ConfigError(f"{features_path}: record {s.id!r} holds {s.n_layers}x{s.hidden} "
                              f"layers x width, expected {dims[0]}x{dims[1]}")
        if s.id in slots:
            one = bertfuse.fuse(s, pairing, weights, mode=resolved["fusion_mode"])
            for i in slots[s.id]:
                fused[i] = one

    bertfuse.read_hs_file(features_path, each=fuse_record)
    for r, f in zip(records, fused):
        if f is None:
            raise ConfigError(f"{features_path}: no hidden states for record {r.id!r}")
    return fused


def assemble(resolved, splits, widths=None):
    """Model inputs for every ``(records, features_path)`` split of a run.

    Returns a list of ``(id, (fused, emb), target)`` triples per split and
    the input widths, keyed as ``ModelConfig`` fields: ``widths``, the
    model's, if given, else the first split's.  Each container is read,
    fused and freed in turn, and refused, by name, as soon as it fuses to
    other widths.  Then each table loads once, is checked for width before
    any record is embedded, embeds every split and is freed on return.
    """
    use_bert = resolved["branches"] in ("bert", "both")
    use_emb = resolved["branches"] in ("emb", "both")
    widths = dict(widths or {})
    fused = []
    for records, features_path in splits:
        if not use_bert:
            fused.append([None] * len(records))
            continue
        split = _fuse_records(records, resolved, features_path)
        got = (split[0].rows, split[0].cols) if split else (None, None)
        want = (widths.setdefault("n_pairs", got[0]), widths.setdefault("fused_width", got[1]))
        if got != want:
            raise ConfigError(f"{features_path}: records fuse to {got[0]}x{got[1]}, "
                              f"the model takes {want[0]}x{want[1]}")
        fused.append(split)
    embed = None
    if use_emb:
        embedder, stop = embedder_from(resolved), stoplist_from(resolved)
        if widths.setdefault("emb_dim", embedder.total_dim) != embedder.total_dim:
            tables = ", ".join(entry["path"] for entry in resolved["embedding_tables"])
            raise ConfigError(f"embedding tables {tables}: {embedder.total_dim} columns, "
                              f"the model takes {widths['emb_dim']}")

        def embed(r):
            seq = corpus.prepare(r, resolved["variant"], stop, resolved["max_len"])
            return embedder.build_matrix(seq)

    return [[(r.id, (f, embed(r) if embed else None), r.mean_grade)
             for r, f in zip(records, split)] for (records, _), split in zip(splits, fused)], widths


def model_config_from(resolved, dims) -> model_lib.ModelConfig:
    """The model of a run: each ``ModelConfig`` field the run config names
    (``hidden_size``, ``kernel_sizes``, ...), the branches it turns on, and
    ``dims``, the input widths ``assemble`` returned."""
    named = {f.name: resolved[f.name] for f in dataclasses.fields(model_lib.ModelConfig)
             if f.name in resolved}
    return model_lib.ModelConfig(use_bert_branch=resolved["branches"] in ("bert", "both"),
                                 use_emb_branch=resolved["branches"] in ("emb", "both"),
                                 **named, **dims)
