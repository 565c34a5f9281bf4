"""Shared test plumbing: acceptance-criterion result lines and set-up call logs.

Each acceptance test reports one PASS/FAIL line through the
``criterion_report`` fixture; the lines are echoed both immediately
(visible on failure) and in a summary section at the end of the run.
``setup_calls`` logs the calls run set-up makes into the input readers and
per-record builders.  ``forced_split`` makes every model fork its branches
and every Bi-GRU fork its directions on two CPUs; ``counting_worker`` and
``idle_worker`` give two CPUs and a worker that counts its tasks or refuses
them.
"""

import pytest

import iben.autodiff as ad
from iben import bertfuse, wordvec

_criterion_lines: list[str] = []


@pytest.fixture(scope="session")
def criterion_report():
    def _report(number: int, name: str, ok: bool, detail: str = "") -> bool:
        status = "PASS" if ok else "FAIL"
        line = f"criterion {number} ({name}): {status}"
        if detail:
            line += f" — {detail}"
        _criterion_lines.append(line)
        print(line)
        return ok

    return _report


@pytest.fixture
def setup_calls(monkeypatch):
    """The names of the calls to ``bertfuse.read_hs_file``, ``bertfuse.fuse``,
    ``wordvec.load_text_vectors`` and ``UnifiedEmbedder.build_matrix``, in the
    order they are made; each call still runs."""
    calls: list[str] = []
    for owner, attr, name in ((bertfuse, "read_hs_file", "read_hs_file"),
                              (bertfuse, "fuse", "fuse"),
                              (wordvec, "load_text_vectors", "load_text_vectors"),
                              (wordvec.UnifiedEmbedder, "build_matrix", "build_matrix")):
        def logged(*args, _call=getattr(owner, attr), _name=name, **kwargs):
            calls.append(_name)
            return _call(*args, **kwargs)

        monkeypatch.setattr(owner, attr, logged)
    return calls


class CountingWorker:
    def __init__(self, worker):
        self.worker = worker
        self.calls = 0

    def submit(self, fn, *args):
        self.calls += 1
        return self.worker.submit(fn, *args)


class IdleWorker:
    def submit(self, *args, **kwargs):
        raise AssertionError("the worker thread was asked to run")


@pytest.fixture
def counting_worker(monkeypatch):
    """Two usable CPUs; returns the worker, which counts its submits."""
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
    worker = CountingWorker(ad._worker)
    monkeypatch.setattr(ad, "_worker", worker)
    return worker


@pytest.fixture
def idle_worker(monkeypatch):
    """Two usable CPUs and a worker that fails the test if it is given a task."""
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ad, "_worker", IdleWorker())


@pytest.fixture
def forced_split(monkeypatch, counting_worker):
    """Every fork happens at any size (gate 0) on two CPUs where the worker is
    free: a model's branches, and a Bi-GRU's directions unless a parameter is
    in both; returns the worker, which counts its submits.  A test that needs
    the one-op Bi-GRU or unforked branches patches ``FORK_MIN_MADDS`` to
    ``1 << 62``."""
    monkeypatch.setattr(ad, "FORK_MIN_MADDS", 0)
    return counting_worker


def pytest_terminal_summary(terminalreporter, exitstatus):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)
