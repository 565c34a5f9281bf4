"""The benchmark's workloads: input sizes, run configuration and timing plan.

Every workload runs the `iben train` pipeline from raw files: a headline CSV
and a hidden-state container for the training and dev splits, plus one or
more word-vector text tables.  The workloads differ in model size, in how
much of the raw input the model uses, and in how the run's time is spent.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str  # its reason to exist is the workload's `why` in BENCHMARK.json
    # raw inputs
    source: str  # "headlines" (seeded synthetic) or "criterion4" (fixed)
    n_train: int  # records in the training CSV
    n_dev: int  # records in the dev CSV; 0 means the dev split is the training CSV
    layers: int  # encoder layers in the hidden-state container
    hidden: int  # encoder width in the hidden-state container
    vocab_pool: int  # distinct words the headlines draw from
    table_dims: tuple[int, ...]  # one word-vector table per entry
    table_formats: tuple[str, ...]
    filler_rows: int  # table rows for words outside the dataset
    # run configuration keys, as in run.json
    config: dict = field(default_factory=dict)
    # timing plan
    setup_reps: int = 3  # minimum set-up repetitions
    setup_share: float = 0.0  # share of --seconds spent repeating set-up
    train_samples: int | None = None  # training samples per round (None: all)
    eval_every: int = 1  # epochs between dev-evaluation passes, as the callback runs
    probe_samples: int = 3  # samples re-run per layer in the traced run


PAPER_MODEL = {
    "hidden_size": 128,
    "dense_size": 64,
    "kernel_sizes": [1, 2, 3, 4],
    "filters_per_kernel": 9,
    "max_len": 40,
    "oov": {"kind": "seeded_uniform"},
}
PAPER_TRAIN = {"batch_size": 16, "learning_rate": 0.001}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_paper",
            source="headlines", n_train=16, n_dev=32, layers=24, hidden=1024,
            vocab_pool=300, table_dims=(300, 300, 300),
            table_formats=("glove_text", "glove_text", "w2v_text"), filler_rows=0,
            config={**PAPER_MODEL, "train": {**PAPER_TRAIN, "epochs": 3}},
            setup_reps=15, setup_share=0.2, probe_samples=3,
        ),
        Workload(
            name="train_overfit16",
            source="criterion4", n_train=16, n_dev=0, layers=4, hidden=16,
            vocab_pool=40, table_dims=(8,), table_formats=("glove_text",),
            filler_rows=0,
            config={
                "hidden_size": 16, "dense_size": 16, "max_len": 8, "seed": 11,
                "oov": {"kind": "seeded_uniform", "low": -0.5, "high": 0.5, "seed": 7},
                "train": {"batch_size": 16, "learning_rate": 0.01, "epochs": 120},
            },
            setup_reps=41, eval_every=2, probe_samples=16,
        ),
        Workload(
            name="ingest_paper",
            source="headlines", n_train=160, n_dev=16, layers=24, hidden=1024,
            vocab_pool=300, table_dims=(300, 300, 300),
            table_formats=("glove_text", "glove_text", "w2v_text"), filler_rows=7000,
            config={**PAPER_MODEL, "train": {**PAPER_TRAIN, "epochs": 4}},
            setup_reps=3, setup_share=0.5, train_samples=8, probe_samples=1,
        ),
    )
}

# Which end-to-end metric each per-layer metric should move, and on which
# workload, written down before any optimisation is measured.
_MODEL = "train_samples_per_s on train_paper (forward halves also eval_samples_per_s); " \
         "barely train_overfit16; ingest_paper only through its four small batches"
_TAPE = "train_samples_per_s on train_overfit16 mainly, smaller share on train_paper"
_INGEST = "setup_s on ingest_paper; ~nothing on train_paper"
LAYER_MOVES = {
    "model.branch_a.bigru_fwd_ms": _MODEL,
    "model.branch_a.bigru_bwd_ms": _MODEL,
    "model.branch_b.bigru_fwd_ms": _MODEL,
    "model.branch_b.bigru_bwd_ms": _MODEL,
    "model.branch_b.conv_fwd_ms": _MODEL,
    "model.branch_b.conv_bwd_ms": _MODEL,
    "model.heads_ms": _MODEL,
    "model.predict_ms": "eval_samples_per_s on train_paper",
    "autodiff.tape_entries_per_sample": _TAPE,
    "autodiff.backward_ms_per_sample": _TAPE,
    "autodiff.us_per_entry": _TAPE,
    "train.adam_step_ms": "train_samples_per_s on train_paper and train_overfit16 "
                          "(~1.5% of a train_paper batch)",
    "train.batch_ms": "train_samples_per_s on train_paper and train_overfit16",
    "train.loss_mean": "none: a fixed number for a seed, moved only by changed arithmetic",
    "wordvec.load_text_vectors_s": _INGEST,
    "wordvec.rows_per_s": _INGEST,
    "wordvec.vocab_hit_share": _INGEST,
    "wordvec.build_matrix_us_per_record": _INGEST,
    "bertfuse.read_hs_file_s": "setup_s and peak_rss_mb on ingest_paper",
    "bertfuse.read_mb_per_s": "setup_s and peak_rss_mb on ingest_paper",
    "bertfuse.fuse_ms_per_record": "setup_s and peak_rss_mb on ingest_paper",
    "bertfuse.stack_mb": "peak_rss_mb on ingest_paper (computed from array sizes)",
    "corpus.parse_dataset_s": "setup_s, a small share on every workload",
    "corpus.prepare_us_per_record": "setup_s, a small share on every workload",
    "bench.tracing_overhead_samples_per_s": "none: traced minus untraced "
                                            "train_samples_per_s in one process",
}
