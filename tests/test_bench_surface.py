"""Every iben name the benchmark reaches must exist.

``bench/run.py`` and ``bench/tracing.py`` call into the package by attribute
(``cli._assemble_samples``, ``self.model_lib.IbenModel``) and wrap
attributes named by string (``tracer.wrap(wordvec, "load_text_vectors")``).
A change to ``src`` that renames one of them breaks the benchmark only when
it runs; these tests find it from the source.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from iben import autodiff, bertfuse, cli, corpus, model, pipeline, train, wordvec

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the names bench/run.py's import_iben gives the modules, as locals and as
# attributes of its Bench object; "pipeline" is not among them yet
MODULES = {"ad": autodiff, "bertfuse": bertfuse, "cli": cli, "corpus": corpus,
           "model_lib": model, "pipeline": pipeline, "train_lib": train, "wordvec": wordvec}


def _aliases(scope) -> dict:
    """MODULES, plus each local bound to ``self.<module>`` in ``scope``."""
    names = dict(MODULES)
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target, value = node.targets[0], node.value
        pairs = (zip(target.elts, value.elts)
                 if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                 else [(target, value)])
        for name, source in pairs:
            if (isinstance(name, ast.Name) and isinstance(source, ast.Attribute)
                    and isinstance(source.value, ast.Name) and source.value.id == "self"
                    and source.attr in MODULES):
                names[name.id] = MODULES[source.attr]
    return names


def _owner(node, names):
    """The module or class that expression ``node`` names, or None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return MODULES.get(node.attr)
        base = _owner(node.value, names)
        if base is not None:
            found = getattr(base, node.attr, None)
            return found if isinstance(found, type) else None
    return None


def reached(path: Path) -> list[tuple[str, object, str]]:
    """(where, owner, attribute) for every iben attribute the file reaches."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    scopes += [m for n in tree.body if isinstance(n, ast.ClassDef)
               for m in n.body if isinstance(m, ast.FunctionDef)]
    out = []
    for scope in scopes:
        names = _aliases(scope)
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute):
                owner = _owner(node.value, names)
                if owner is not None:
                    out.append((f"{path.name}:{node.lineno}", owner, node.attr))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("wrap", "hook") and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                owner = _owner(node.args[0], names)
                if owner is not None:
                    out.append((f"{path.name}:{node.lineno}", owner, node.args[1].value))
    return out


@pytest.mark.parametrize("name", ["run.py", "tracing.py"])
def test_every_iben_attribute_the_benchmark_reaches_exists(name):
    found = reached(BENCH / name)
    missing = [f"{where}: {getattr(owner, '__name__', owner)}.{attr}"
               for where, owner, attr in found if not hasattr(owner, attr)]
    assert not missing, "the benchmark reaches names src no longer has: " + ", ".join(missing)


def test_the_scan_sees_the_set_up_calls_and_the_wrapped_layers():
    seen = {(owner.__name__, attr) for name in ("run.py", "tracing.py")
            for _, owner, attr in reached(BENCH / name)}
    assert {("iben.cli", "_assemble_samples"), ("iben.cli", "_model_config_from"),
            ("iben.cli", "_stoplist_from"), ("iben.cli", "_embedder_from"),
            ("iben.cli", "validate_runconfig"), ("iben.cli", "_load_json"),
            ("iben.model", "bi_gru"), ("iben.wordvec", "load_text_vectors"),
            ("UnifiedEmbedder", "build_matrix"), ("Tape", "backward"),
            ("IbenModel", "predict")} <= seen


def test_the_benchmark_imports_only_modules_that_exist():
    for name in ("run.py", "tracing.py"):
        for node in ast.walk(ast.parse((BENCH / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "iben":
                for alias in node.names:
                    importlib.import_module(f"iben.{alias.name}")


def test_set_up_calls_every_function_the_traced_benchmark_times(tmp_path, monkeypatch):
    """``bench/run.py --trace 1`` takes medians and rates of the set-up spans of
    ``read_hs_file``, ``fuse``, ``load_text_vectors`` and ``build_matrix``, and
    fails on a name with no span; ``read_hs_file``'s span counts the file's bytes."""
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclass looks itself up there
    spec.loader.exec_module(tracing)
    data = tmp_path / "data.csv"
    data.write_text("id,original,edit,grades,meanGrade\n1,Officials <warn/> about it,sing,1,1\n"
                    "2,Senate <votes/> on deals,dances,3,3\n", encoding="utf-8")
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("officials 0.5 -0.25\nsing 0.125 1\n", encoding="utf-8")
    resolved = cli.validate_runconfig({
        "train_data": str(data), "out_dir": str(tmp_path / "out"),
        "features": str(tmp_path / "train.hs"), "embedding_tables": [{"path": str(vectors)}],
        "max_len": 4, "kernel_sizes": [1, 2]})
    records = corpus.parse_dataset(data)
    bertfuse.write_hs_file([bertfuse.pseudo_encode(corpus.prepare(r, "edited", None, 4), 4, 3,
                                                   seed=1, stack_id=r.id) for r in records],
                           resolved["features"])
    tracer = tracing.Tracer()
    tracing.install_iben_spans(tracer, ad=autodiff, bertfuse=bertfuse, corpus=corpus,
                               model_lib=model, train_lib=train, wordvec=wordvec)
    try:
        with tracer.span("bench.setup"):
            samples, _ = cli._assemble_samples(records, resolved, resolved["features"])
    finally:
        tracer.restore()
    assert len(samples) == 2
    names = [s.name for s in tracer.within(tracer.roots("bench.setup")[0])]
    for name in ("bertfuse.read_hs_file", "bertfuse.fuse", "wordvec.load_text_vectors",
                 "wordvec.build_matrix"):
        assert name in names, f"set-up makes no {name} call"
    (read,) = [s for s in tracer.spans if s.name == "bertfuse.read_hs_file"]
    assert read.count == os.path.getsize(resolved["features"]) and read.seconds > 0


def _lambda_wraps() -> dict[tuple, tuple[int, bool]]:
    """For every ``tracer.wrap`` in bench/tracing.py whose ``name`` or ``count``
    is a lambda, (owner, attribute) -> (n, more): the lambda takes the first n
    positional arguments of each call of the wrapped function, and with
    ``more`` any after them too.  ``name(*args)`` gets them all and
    ``count(result, *args)`` gets them after the result."""
    scope = next(n for n in ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8")).body
                 if isinstance(n, ast.FunctionDef) and n.name == "install_iben_spans")
    names = _aliases(scope)
    out = {}
    for node in ast.walk(scope):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"):
            continue
        given = dict(zip(("owner", "attr", "name", "count"), node.args))
        given.update((k.arg, k.value) for k in node.keywords)
        for role, skip in (("name", 0), ("count", 1)):
            lam = given.get(role)
            if isinstance(lam, ast.Lambda):
                key = (_owner(given["owner"], names), given["attr"].value)
                out[key] = (len(lam.args.posonlyargs + lam.args.args) - skip,
                            lam.args.vararg is not None)
    return out


def _binding_problem(function, n: int, more: bool) -> str | None:
    """Why ``function`` does not bind exactly n positional arguments (or, with
    ``more``, at least n) with every further parameter keyword-only with a
    default; None when it does."""
    params = list(inspect.signature(function).parameters.values())
    bound = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    if len(bound) < n or (len(bound) > n and not more):
        return f"binds {len(bound)} positional arguments, not {n}"
    further = [p.name for p in params[len(bound):]
               if p.kind is not p.KEYWORD_ONLY or p.default is p.empty]
    return f"{further} are not keyword-only with a default" if further else None


def test_a_wrap_whose_name_or_count_is_a_lambda_gets_the_arguments_it_takes():
    """The tracer hands a wrapped call's positional arguments to its lambdas,
    so a positional parameter added to the function would reach them."""
    wraps = _lambda_wraps()
    assert ("bi_gru" in {attr for _, attr in wraps}) and len(wraps) >= 5
    problems = [f"{getattr(owner, '__name__', owner)}.{attr}: {problem}"
                for (owner, attr), (n, more) in wraps.items()
                if (problem := _binding_problem(getattr(owner, attr), n, more))]
    assert not problems, "; ".join(problems)


def test_the_benchmark_calls_each_lambda_wrapped_function_as_its_lambda_takes_it():
    """E.g. ``probe_layers``' ``m.bi_gru(x, params)``: positional arguments the
    name lambda takes, and nothing positional beyond them."""
    wraps = _lambda_wraps()
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    scopes = [m for n in tree.body if isinstance(n, ast.ClassDef)
              for m in n.body if isinstance(m, ast.FunctionDef)]
    checked, problems = 0, []
    for scope in scopes:
        names = _aliases(scope)
        for node in ast.walk(scope):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            key = (_owner(node.func.value, names), node.func.attr)
            if key in wraps:
                checked += 1
                n, more = wraps[key]
                takes = len(node.args) == n or (more and len(node.args) > n)
                problem = (None if takes else f"passes {len(node.args)} positional arguments")
                problem = problem or _binding_problem(getattr(*key), len(node.args), more)
                if problem:
                    problems.append(f"run.py:{node.lineno} {key[1]}: {problem}")
    assert checked >= 2 and not problems, "; ".join(problems)


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("branches", ["both", "bert", "emb"])
def test_a_forward_calls_each_wrapped_layer_once_per_bi_gru_and_conv_bank(
        request, monkeypatch, branches, taped, split):
    """``bench/run.py --trace 1`` reads ``model.branch_*.bigru_fwd_ms`` and
    ``model.branch_b.conv_fwd_ms`` from its spans around ``model.bi_gru`` and
    ``model.conv_features``, and exits with "no samples to take a median of"
    for a metric with no span.  So a forward pass, taped or not, one-branch
    or two-branch, forked or serial, calls each once per Bi-GRU and per
    convolution bank, whichever op steps the directions."""
    if split:
        request.getfixturevalue("forced_split")
    calls = []
    for attr in ("bi_gru", "conv_features"):
        def counted(*args, _call=getattr(model, attr), _attr=attr, **kwargs):
            calls.append(_attr)
            return _call(*args, **kwargs)

        monkeypatch.setattr(model, attr, counted)
    config = model.ModelConfig(use_bert_branch=branches != "emb",
                               use_emb_branch=branches != "bert", fused_width=8, n_pairs=3,
                               emb_dim=5, hidden_size=3, dense_size=2, kernel_sizes=(1, 2),
                               filters_per_kernel=2)
    net = model.IbenModel(config)
    rng = np.random.default_rng(4)
    fused, emb = rng.normal(size=(2, 3, 8)), rng.normal(size=(2, 6, 5))
    if taped:
        with autodiff.Tape():
            net.forward(fused=fused, emb=emb)
    else:
        net.predict(fused=fused, emb=emb)
    want = {"both": ["bi_gru", "bi_gru", "conv_features"], "bert": ["bi_gru"],
            "emb": ["bi_gru", "conv_features"]}[branches]
    assert sorted(calls) == want
