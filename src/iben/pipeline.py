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
    o = resolved["oov"]
    policy = wordvec.OovPolicy(kind=o["kind"], low=o["low"], high=o["high"], seed=o["seed"])
    return wordvec.UnifiedEmbedder(tables, policy)


def _fuse_stack(stack: bertfuse.LayerStack, resolved) -> bertfuse.FusedSequence:
    if resolved["layers"]:
        stack = bertfuse.select_layers(stack, resolved["layers"])
    pairing = (bertfuse.adjacent_pairing if resolved["pairing"] == "adjacent"
               else bertfuse.listed_pairing)(stack.n_layers)
    weights = resolved["layer_weights"]
    if weights is None:
        weights = bertfuse.uniform_weights(len(pairing))
    elif len(weights) != len(pairing):
        raise ConfigError(f"{len(weights)} layer_weights for {len(pairing)} layer pairs")
    return bertfuse.fuse(stack, pairing, weights, mode=resolved["fusion_mode"])


def _fuse_records(records, resolved, features_path) -> tuple[list, dict]:
    """Each record's fused layer stack, in record order, and the shape they all
    share.  The container's float64 stacks are freed on return."""
    stacks = bertfuse.stacks_by_id(bertfuse.read_hs_file(features_path), features_path)
    fused, dims = [], {"fused_width": None, "n_pairs": None}
    for r in records:
        if r.id not in stacks:
            raise ConfigError(f"{features_path}: no hidden states for record {r.id!r}")
        f = _fuse_stack(stacks[r.id], resolved)
        if not fused:
            dims = {"fused_width": f.cols, "n_pairs": f.rows}
        elif (f.cols, f.rows) != (dims["fused_width"], dims["n_pairs"]):
            raise ConfigError(f"{features_path}: record {r.id!r} fuses to {f.rows}x{f.cols}, "
                              f"expected {dims['n_pairs']}x{dims['fused_width']}")
        fused.append(f)
    return fused, dims


def assemble(resolved, splits):
    """Model inputs for every ``(records, features_path)`` split of a run.

    Returns a list of ``(id, (fused, emb), target)`` triples per split and
    the first split's input widths, keyed as ``ModelConfig`` fields.  Every
    container is read, fused and freed before any vector table loads; each
    table then loads once, embeds every split and is freed on return.  A
    split of other widths than the first is refused, naming its container
    or the tables.
    """
    use_bert = resolved["branches"] in ("bert", "both")
    use_emb = resolved["branches"] in ("emb", "both")
    fused = [_fuse_records(records, resolved, path) if use_bert else ([None] * len(records), {})
             for records, path in splits]
    embedder = embedder_from(resolved) if use_emb else None
    stop = stoplist_from(resolved) if use_emb else None

    assembled, widths = [], None
    for (records, features_path), (split_fused, dims) in zip(splits, fused):
        if use_emb:
            dims["emb_dim"] = embedder.total_dim
        if widths is None:
            widths = dims
        else:  # the model is built with the first split's widths
            check_dims(dims, model_config_from(resolved, widths), resolved, features_path)
        samples = []
        for r, f in zip(records, split_fused):
            emb = None
            if use_emb:
                seq = corpus.prepare(r, resolved["variant"], stop, resolved["max_len"])
                emb = embedder.build_matrix(seq)
            samples.append((r.id, (f, emb), r.mean_grade))
        assembled.append(samples)
    return assembled, widths


def check_dims(dims, config: model_lib.ModelConfig, resolved, features_path) -> None:
    """Refuse assembled inputs whose widths differ from the model's, naming their files."""
    if config.use_bert_branch and (dims.get("n_pairs"), dims.get("fused_width")) != (
            config.n_pairs, config.fused_width):
        raise ConfigError(f"{features_path}: records fuse to {dims.get('n_pairs')}x"
                          f"{dims.get('fused_width')}, the model takes "
                          f"{config.n_pairs}x{config.fused_width}")
    if config.use_emb_branch and dims.get("emb_dim") != config.emb_dim:
        tables = ", ".join(entry["path"] for entry in resolved["embedding_tables"])
        raise ConfigError(f"embedding tables {tables}: {dims.get('emb_dim')} columns, "
                          f"the model takes {config.emb_dim}")


def model_config_from(resolved, dims) -> model_lib.ModelConfig:
    """The model of a run: each ``ModelConfig`` field the run config names
    (``hidden_size``, ``kernel_sizes``, ...), the branches it turns on, and
    ``dims``, the input widths ``assemble`` returned."""
    named = {f.name: resolved[f.name] for f in dataclasses.fields(model_lib.ModelConfig)
             if f.name in resolved}
    return model_lib.ModelConfig(use_bert_branch=resolved["branches"] in ("bert", "both"),
                                 use_emb_branch=resolved["branches"] in ("emb", "both"),
                                 **named, **dims)
