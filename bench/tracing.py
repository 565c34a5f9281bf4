"""Spans recorded around calls into iben's public functions, from outside.

A :class:`Tracer` replaces module and class attributes with wrappers that
record one span per call (name, start, end, parent, and a work count), keeps
the spans in memory, and puts the originals back on exit.  Calls made inside
the package look the wrapped names up at call time, so they are recorded
too: ``IbenModel.forward`` calling ``bi_gru`` yields a ``bi_gru`` span whose
parent is the enclosing span.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 at top level
    count: int = 0  # work done: records, rows, bytes or tape entries

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.labels: dict[int, str] = {}  # id(object) -> span-name prefix
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a string or ``name(*args)``; ``count(result, *args)``
        sets the span's work count after the call returns.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            index = self.begin(name(*args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                self.spans[index].count = count(result, *args)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def hook(self, owner, attr: str, before=None, after=None) -> None:
        """Call ``before()`` / ``after()`` around every call of ``owner.attr``."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            result = original(*args, **kwargs)
            if after is not None:
                after()
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the spans back ---------------------------------------------

    def within(self, root: int) -> list[Span]:
        """Every span nested, at any depth, under span ``root``."""
        inside = {root}
        out = []
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
                out.append(self.spans[i])
        return out

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def dump(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [dict(asdict(s), start=s.start - t0, end=s.end - t0) for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "perf_counter seconds from the first span",
                       "spans": rows}, fh)


def install_iben_spans(tracer: Tracer, ad, bertfuse, corpus, model_lib, train_lib,
                       wordvec) -> None:
    """Wrap the public functions of every layer that a workload calls."""
    tracer.wrap(corpus, "parse_dataset", "corpus.parse_dataset",
                lambda records, path: len(records))
    tracer.wrap(corpus, "prepare", "corpus.prepare")
    tracer.wrap(wordvec, "load_text_vectors", "wordvec.load_text_vectors",
                lambda table, *a: len(table) + table.duplicates)
    tracer.wrap(wordvec.UnifiedEmbedder, "build_matrix", "wordvec.build_matrix")
    tracer.wrap(bertfuse, "read_hs_file", "bertfuse.read_hs_file",
                lambda stacks, path: os.path.getsize(path))
    tracer.wrap(bertfuse, "fuse", "bertfuse.fuse")
    tracer.wrap(model_lib, "bi_gru", lambda seq, params: tracer.labels.get(
        id(params), "model.unlabelled") + ".bigru_fwd")
    tracer.wrap(model_lib, "conv_features", "model.branch_b.conv_fwd")
    tracer.wrap(model_lib.IbenModel, "predict", "model.predict")
    tracer.wrap(ad.Tape, "backward", "autodiff.backward",
                lambda result, tape, loss: len(tape))
    tracer.wrap(train_lib, "adam_step", "train.adam_step")
    # a batch runs from the model's zero_grad to the end of the optimizer step
    batch: list[int] = []
    tracer.hook(model_lib.IbenModel, "zero_grad",
                before=lambda: batch.append(tracer.begin("train.batch")))
    tracer.hook(train_lib, "adam_step", after=lambda: tracer.end(batch.pop()))


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("no samples to take a median of")
    return float(statistics.median(values))
