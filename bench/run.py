"""Benchmark of the iben training pipeline, one workload per process.

Run from the root of a checkout:

    python3 bench/run.py --workload train_paper --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # each workload in its own process

A run writes seeded synthetic raw files (``bench/inputs.py``, in a child
process so that generating them does not count in this process's peak RSS),
then drives them through the functions ``iben train`` calls (``cmd_train``'s
own helpers in ``iben.cli`` for the set-up), in the same order, as one
closed-loop caller:

1. set-up, repeated: run-config validation, CSV parse, hidden-state
   container read and fusion, vector-table load, embedding matrices, model
   construction, for the training and then the dev split;
2. one untimed warm-up batch of two samples on a throw-away model;
3. rounds, repeated while ``--seconds`` lasts: a fresh model trained on the
   training split, with a dev-evaluation pass from the epoch callback, as the
   ``dev_data`` callback of ``iben train`` runs it (on train_overfit16 every
   2nd epoch, so that 120 passes do not swamp the run);
4. correctness checks on the outputs.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
instead records spans around the calls into every layer (``bench/tracing.py``),
re-runs each model layer on its own tape to time its backward pass, and
reports the per-layer metrics.  A table goes to standard output, a JSON
record with machine facts goes to ``bench/out/results/``, and the last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # pinned before numpy loads, for steady and bit-identical runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
from tracing import Tracer, install_iben_spans, median  # noqa: E402
from workloads import LAYER_MOVES, WORKLOADS  # noqa: E402

perf = time.perf_counter


def import_iben(root: Path):
    """Import the package from ``<root>/src``; refuse any other copy."""
    src = root / "src"
    if not (src / "iben" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'iben'} not found; run from a checkout root")
    sys.path.insert(0, str(src))
    import iben
    from iben import autodiff, bertfuse, cli, corpus, model, train, wordvec

    if Path(iben.__file__).resolve().parent != (src / "iben").resolve():
        raise SystemExit(f"error: imported iben from {iben.__file__}, not {src}")
    return dict(ad=autodiff, bertfuse=bertfuse, cli=cli, corpus=corpus,
                model_lib=model, train_lib=train, wordvec=wordvec)


@dataclasses.dataclass
class Setup:
    resolved: dict
    samples: list  # (id, (fused, emb), target)
    dev_samples: list
    model_config: object
    train_config: object
    files_read: int


@dataclasses.dataclass
class Round:
    samples: int  # samples trained: epochs x training-split size
    train_seconds: float  # wall time of `train`, minus the dev evaluations
    eval_samples: int  # dev samples predicted, over every evaluation pass
    eval_seconds: float  # wall time of those evaluation passes
    history: list
    report: object  # the last dev-evaluation report
    model: object


class Bench:
    def __init__(self, workload, seed: int, seconds: float, work: Path, iben: dict):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.__dict__.update(iben)
        self.checks: list[tuple[str, bool]] = []
        self.ops = 0  # batches, eval samples and input files handled
        self.details: dict = {}  # raw timings behind the end-to-end metrics

    # -- the `iben train` pipeline -------------------------------------------

    def write_run_config(self) -> Path:
        w, work = self.w, self.work
        dev = "dev" if w.n_dev else "train"
        raw = dict(w.config)
        raw.update(
            train_data=str(work / "train.csv"), features=str(work / "train.hs"),
            dev_data=str(work / f"{dev}.csv"), dev_features=str(work / f"{dev}.hs"),
            out_dir=str(work / "out"),
            embedding_tables=[{"path": str(work / f"table{i}.txt"), "format": fmt}
                              for i, fmt in enumerate(w.table_formats)])
        path = work / "run.json"
        path.write_text(json.dumps(raw, indent=1), encoding="utf-8")
        return path

    def setup(self, config_path: Path) -> Setup:
        """Raw files to the first batch: ``cmd_train``'s steps in its order,
        through the same ``iben.cli`` helpers."""
        cli, corpus = self.cli, self.corpus
        resolved = cli.validate_runconfig(cli._load_json(config_path))
        records = corpus.parse_dataset(resolved["train_data"])
        samples, dims = cli._assemble_samples(records, resolved, resolved["features"])
        model_config = cli._model_config_from(resolved, dims)
        self.model_lib.IbenModel(model_config)
        train_config = self.train_lib.TrainConfig(seed=resolved["seed"],
                                                  **resolved["train"])
        dev_records = corpus.parse_dataset(resolved["dev_data"])
        dev_samples, _ = cli._assemble_samples(dev_records, resolved,
                                               resolved["dev_features"])
        files = 5 + 2 * len(resolved["embedding_tables"])  # run.json, 2 CSVs, 2 containers
        return Setup(resolved, samples, dev_samples, model_config, train_config, files)

    def warm_up(self, st: Setup) -> None:
        two = [(inputs_, target) for _, inputs_, target in st.samples[:2]]
        net = self.model_lib.IbenModel(st.model_config)
        self.train_lib.train(net, two, dataclasses.replace(st.train_config, epochs=1))
        self.train_lib.evaluate_model(net, st.dev_samples[:2])

    def train_round(self, st: Setup, tracer: Tracer | None = None) -> Round:
        net = self.model_lib.IbenModel(st.model_config)
        if tracer is not None:
            tracer.labels = {id(net.branch_a): "model.branch_a",
                             id(net.branch_b_rnn): "model.branch_b"}
        dataset = [(x, target) for _, x, target in st.samples[:self.w.train_samples]]
        epochs, size = st.train_config.epochs, st.train_config.batch_size
        reports = []
        eval_s = 0.0

        def callback(epoch, current):
            nonlocal eval_s
            if (epoch + 1) % self.w.eval_every and epoch + 1 < epochs:
                return
            t0 = perf()
            reports.append(self.train_lib.evaluate_model(current, st.dev_samples,
                                                         clamp=st.resolved["clamp"]))
            eval_s += perf() - t0

        t0 = perf()
        history = self.train_lib.train(net, dataset, st.train_config, epoch_callback=callback)
        wall = perf() - t0
        eval_samples = len(reports) * len(st.dev_samples)
        self.ops += epochs * math.ceil(len(dataset) / size) + eval_samples
        return Round(epochs * len(dataset), wall - eval_s, eval_samples, eval_s,
                     history, reports[-1], net)

    # -- phases ----------------------------------------------------------------

    def run_setups(self, config_path: Path, tracer: Tracer | None = None):
        budget = self.seconds * self.w.setup_share
        times: list[float] = []
        st = None
        started = perf()
        while len(times) < self.w.setup_reps or perf() - started + times[-1] <= budget:
            st = None  # release the previous set-up's arrays first
            index = tracer.begin("bench.setup") if tracer else None
            t0 = perf()
            st = self.setup(config_path)
            times.append(perf() - t0)
            if tracer:
                tracer.end(index)
            self.ops += st.files_read
        return st, times

    def run_rounds(self, st: Setup) -> list[Round]:
        budget = self.seconds * (1.0 - self.w.setup_share)
        rounds: list[Round] = []
        started, round_s = perf(), 0.0
        while not rounds or perf() - started + round_s <= budget:  # room for one more
            t0 = perf()
            rounds.append(self.train_round(st))
            round_s = perf() - t0
            if len(rounds) > 1:
                rounds[-1].model = None  # the checks use the first round's model
        return rounds

    # -- correctness -------------------------------------------------------------

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    def check_outputs(self, st: Setup, rounds: list[Round]) -> None:
        ad = self.ad
        net = rounds[0].model
        _, (fused, emb), _ = st.dev_samples[0]
        with ad.Tape():
            taped = net.forward(fused=fused, emb=emb).item()
        self.check("taped forward equals predict to 1e-12",
                   abs(taped - net.predict(fused=fused, emb=emb)) <= 1e-12)
        rows = rounds[0].report.rows
        rmse = math.sqrt(math.fsum((p - y) ** 2 for _, y, p in rows) / len(rows))
        self.check("dev RMSE equals its recomputation from the rows",
                   abs(rmse - rounds[0].report.rmse) <= 1e-12)
        for r in rounds[1:]:
            self.check("a repeated round trains bit-identically",
                       r.history == rounds[0].history)
        if self.w.source == "criterion4":
            self.check("criterion 4: min training loss < 1e-2",
                       min(rounds[0].history) < 1e-2)
        if self.w.name == "ingest_paper":
            self.check_ingest(st)

    def prepared(self, st: Setup):
        """Records of the training then the dev split, with their token sequences."""
        corpus, resolved = self.corpus, st.resolved
        stop = self.cli._stoplist_from(resolved)
        records = (corpus.parse_dataset(resolved["train_data"])
                   + corpus.parse_dataset(resolved["dev_data"]))
        return records, [corpus.prepare(r, resolved["variant"], stop, resolved["max_len"])
                         for r in records]

    def vocabulary(self, seqs) -> set:
        return {t for s in seqs for t in s.tokens if t != self.corpus.PAD_TOKEN}

    def check_ingest(self, st: Setup) -> None:
        """Assembled rows against a direct recomputation from the inputs."""
        bertfuse, w = self.bertfuse, self.w
        records, seqs = self.prepared(st)
        used = sorted(self.vocabulary(seqs))
        written = []
        for i, dim in enumerate(w.table_dims):
            words = inputs.table_words(self.seed, i, used, w.filler_rows)
            values = inputs.table_values(self.seed, i, len(words), dim)
            row = {word: k for k, word in enumerate(words) if not word.startswith("z")}
            written.append((dim, row, values))
        for (_, (fused, emb), _), r, seq in zip(st.samples + st.dev_samples, records, seqs):
            stack = bertfuse.pseudo_encode(seq, w.layers, w.hidden, self.seed, stack_id=r.id)
            want = bertfuse.fuse(stack, bertfuse.adjacent_pairing(w.layers),
                                 bertfuse.uniform_weights(w.layers // 2))
            self.check(f"{r.id}: fused rows equal fuse(pseudo_encode(...))",
                       np.array_equal(fused.data, want.data))
            ok = True
            for t, token in enumerate(seq.tokens):
                offset = 0
                for dim, row, values in written:
                    if token in row:
                        ok &= np.array_equal(emb.data[t, offset:offset + dim],
                                             values[row[token]] / inputs.VALUE_SCALE)
                    offset += dim
            self.check(f"{r.id}: in-vocabulary embedding rows equal the written vectors", ok)

    # -- the traced run's extra measurements -----------------------------------

    def probe_layers(self, net, samples) -> dict[str, list[float]]:
        """Milliseconds per sample of each model layer re-run on its own tape.

        One whole-model backward cannot be split from outside, so every layer
        backpropagates a fixed seeded cotangent of its output on its own.
        """
        ad, m = self.ad, self.model_lib
        rng = np.random.default_rng(0)
        out: dict[str, list[float]] = {}

        def run(name, forward, with_forward=False):
            t0 = perf()
            with ad.Tape() as tape:
                y = forward()
                loss = ad.total(ad.hadamard(y, ad.Tensor(rng.normal(size=y.shape))))
            t1 = perf()
            tape.backward(loss)
            out.setdefault(name, []).append((perf() - (t0 if with_forward else t1)) * 1e3)
            return y.values

        for _, (fused, emb), _ in samples:
            xa = ad.Tensor(getattr(fused, "data", fused))
            xb = ad.Tensor(getattr(emb, "data", emb))
            sa = run("model.branch_a.bigru_bwd_ms", lambda: m.bi_gru(xa, net.branch_a))
            sb = run("model.branch_b.bigru_bwd_ms", lambda: m.bi_gru(xb, net.branch_b_rnn))
            cb = run("model.branch_b.conv_bwd_ms",
                     lambda: m.conv_features(xb, net.branch_b_conv))

            def heads():
                va = net.dense_a(m.pool_states(ad.Tensor(sa)))
                vb = net.dense_b(ad.concat([m.pool_states(ad.Tensor(sb)), ad.Tensor(cb)]))
                if net.config.dense_activation:
                    va, vb = ad.relu(va), ad.relu(vb)
                return net.head(ad.concat([va, vb]))

            run("model.heads_ms", heads, with_forward=True)
        net.zero_grad()
        return out

    def tape_us_per_entry(self, reps: int = 7, steps: int = 400) -> float:
        """Record and replay a fixed chain of small-tensor ops, per tape entry."""
        ad = self.ad
        rng = np.random.default_rng(0)
        w = ad.Parameter(rng.normal(size=(8, 8)) * 0.3, "bench.w")
        b = ad.Parameter(rng.normal(size=8) * 0.1, "bench.b")
        x = ad.Tensor(rng.normal(size=8))
        per_entry = []
        for _ in range(reps):
            t0 = perf()
            with ad.Tape() as tape:
                h = x
                for _ in range(steps):
                    a = ad.add(ad.matmul(w, h), b)
                    h = ad.hadamard(ad.sigmoid(a), ad.tanh(a))
                loss = ad.total(h)
            tape.backward(loss)
            per_entry.append((perf() - t0) / len(tape) * 1e6)
        return median(per_entry)

    # -- the two kinds of run ----------------------------------------------------

    def end_to_end(self) -> dict:
        config_path = self.write_run_config()
        st, setup_times = self.run_setups(config_path)
        self.warm_up(st)
        rounds = self.run_rounds(st)
        self.check_outputs(st, rounds)
        train_rates = [r.samples / r.train_seconds for r in rounds]
        eval_rates = [r.eval_samples / r.eval_seconds for r in rounds]
        self.details = {
            "setup_s": setup_times,
            "samples_per_round": rounds[0].samples,
            "train_samples_per_s_by_round": train_rates,
            "eval_samples_per_s_by_round": eval_rates,
        }
        return {
            "train_samples_per_s": (median(train_rates), "1/s"),
            "eval_samples_per_s": (median(eval_rates), "1/s"),
            "setup_s": (median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self, trace_path: Path) -> dict:
        iben = {k: getattr(self, k) for k in ("ad", "bertfuse", "corpus", "model_lib",
                                               "train_lib", "wordvec")}
        tracer = Tracer()
        config_path = self.write_run_config()
        install_iben_spans(tracer, **iben)
        try:
            st, _ = self.run_setups(config_path, tracer)
        finally:
            tracer.restore()
        self.warm_up(st)
        plain = self.train_round(st)
        install_iben_spans(tracer, **iben)
        try:
            with tracer.span("bench.round"):
                traced = self.train_round(st, tracer)
        finally:
            tracer.restore()
        self.check_outputs(st, [plain, traced])
        probes = self.probe_layers(traced.model, st.samples[:self.w.probe_samples])
        us_per_entry = self.tape_us_per_entry()
        tracer.dump(trace_path)

        setups = tracer.roots("bench.setup")
        batches = tracer.roots("train.batch")

        def named(name, roots):
            return [s for r in roots for s in tracer.within(r) if s.name == name]

        def per_setup(name):
            return median(sum(s.seconds for s in tracer.within(r) if s.name == name)
                          for r in setups)

        def ms(name, roots):
            return median(s.seconds * 1e3 for s in named(name, roots))

        loads = named("wordvec.load_text_vectors", setups)
        reads = named("bertfuse.read_hs_file", setups)
        used = self.vocabulary(self.prepared(st)[1])
        tables = self.cli._embedder_from(st.resolved).tables
        entries = [s.count for s in named("autodiff.backward", batches)]
        hs_paths = [st.resolved["features"], st.resolved["dev_features"]]
        stack_bytes = sum(s.data.nbytes for p in hs_paths for s in self.bertfuse.read_hs_file(p))
        round_root = tracer.roots("bench.round")
        return {
            "model.branch_a.bigru_fwd_ms": (ms("model.branch_a.bigru_fwd", batches), "ms"),
            "model.branch_a.bigru_bwd_ms": (median(probes["model.branch_a.bigru_bwd_ms"]), "ms"),
            "model.branch_b.bigru_fwd_ms": (ms("model.branch_b.bigru_fwd", batches), "ms"),
            "model.branch_b.bigru_bwd_ms": (median(probes["model.branch_b.bigru_bwd_ms"]), "ms"),
            "model.branch_b.conv_fwd_ms": (ms("model.branch_b.conv_fwd", batches), "ms"),
            "model.branch_b.conv_bwd_ms": (median(probes["model.branch_b.conv_bwd_ms"]), "ms"),
            "model.heads_ms": (median(probes["model.heads_ms"]), "ms"),
            "model.predict_ms": (ms("model.predict", round_root), "ms"),
            "autodiff.tape_entries_per_sample": (median(entries), "count"),
            "autodiff.backward_ms_per_sample": (ms("autodiff.backward", batches), "ms"),
            "autodiff.us_per_entry": (us_per_entry, "us"),
            "train.adam_step_ms": (ms("train.adam_step", batches), "ms"),
            "train.batch_ms": (median(tracer.spans[i].seconds * 1e3 for i in batches), "ms"),
            "wordvec.load_text_vectors_s": (per_setup("wordvec.load_text_vectors"), "s"),
            "wordvec.rows_per_s": (sum(s.count for s in loads) / sum(s.seconds for s in loads),
                                   "1/s"),
            "wordvec.vocab_hit_share": (
                sum(len(used & t.entries.keys()) for t in tables)
                / sum(len(t) + t.duplicates for t in tables), "share"),
            "wordvec.build_matrix_us_per_record": (
                median(s.seconds * 1e6 for s in named("wordvec.build_matrix", setups)), "us"),
            "bertfuse.read_hs_file_s": (per_setup("bertfuse.read_hs_file"), "s"),
            "bertfuse.read_mb_per_s": (sum(s.count for s in reads) / 1e6
                                       / sum(s.seconds for s in reads), "MB/s"),
            "bertfuse.fuse_ms_per_record": (
                median(s.seconds * 1e3 for s in named("bertfuse.fuse", setups)), "ms"),
            "bertfuse.stack_mb": (stack_bytes / 1e6, "MB_computed"),
            "corpus.parse_dataset_s": (per_setup("corpus.parse_dataset"), "s"),
            "corpus.prepare_us_per_record": (
                median(s.seconds * 1e6 for s in named("corpus.prepare", setups)), "us"),
            "train.loss_mean": (float(np.mean(traced.history)), "mse"),
            "bench.tracing_overhead_samples_per_s": (
                traced.samples / traced.train_seconds
                - plain.samples / plain.train_seconds, "1/s"),
        }


# ---------------------------------------------------------------------------
# machine facts and output

def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_facts(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(root),
    }


def run_one(args, root: Path) -> int:
    iben = import_iben(root)
    workload = WORKLOADS[args.workload]
    out = BENCH_DIR / "out"
    work = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    started = perf()
    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        subprocess.run([sys.executable, str(BENCH_DIR / "inputs.py"),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--out", str(work)], cwd=root, check=True, timeout=170)
        bench = Bench(workload, args.seed, args.seconds, work, iben)
        if args.trace:
            metrics = bench.per_layer(out / "traces" / f"{stem}.json")
        else:
            metrics = bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        raise SystemExit(f"error: metrics {sorted(got.items())} do not match "
                         f"BENCHMARK.json's {sorted(declared.items())}")
    failed = sum(not ok for _, ok in bench.checks)
    attempted = bench.ops + len(bench.checks)
    record = {
        "workload": args.workload, "seed": args.seed,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seconds": args.seconds, "trace": args.trace, "wall_s": perf() - started,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": [{"check": name, "ok": ok} for name, ok in bench.checks],
        "details": bench.details,
        "machine": machine_facts(root),
        "layer_moves": LAYER_MOVES if args.trace else None,
    }
    (out / "results").mkdir(parents=True, exist_ok=True)
    (out / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                  encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"wall {record['wall_s']:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'failed_share':<40} {record['failed_share']:>14.6g} "
          f"({failed} of {attempted} batches, eval samples, input files and checks)")
    for name, ok in bench.checks:
        if not ok:
            print(f"  FAILED: {name}")
    m = record["machine"]
    print(f"  machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"{m['blas']['name']} {m['blas']['version']}, blas threads {m['blas_threads']}, "
          f"commit {m['git_commit']}")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="iben training-pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.workload != "all":
        return run_one(args, root)
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=root).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
