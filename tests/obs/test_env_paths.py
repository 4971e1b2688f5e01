"""An unwritable ``REPRO_TRACE`` or ``REPRO_LOG`` is a typed error.

The environment-selected tracer and log check their path when first
selected: a path that cannot be opened for writing raises
:class:`InvalidParameterError` naming the variable and the path, with
the ``OSError`` chained, from the first library call that traces or
logs. The check opens in append mode, so an existing file (the
driver's trace, when a forked worker checks the same path) is never
truncated. A server checks both variables before it binds and refuses
to start. Explicit tracers and logs keep opening their file lazily.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs.log as log_mod
import repro.obs.tracer as tracer_mod
from repro import parallel_greedy
from repro.errors import InvalidParameterError
from repro.faults import supervised_submit_batch
from repro.metrics.generators import euclidean_instance
from repro.obs import EventLog, Tracer, current_log, current_tracer, log_to, trace_to
from repro.pram.backends import SerialBackend
from repro.serve import ServerConfig, serve_in_thread


@pytest.fixture(autouse=True)
def _fresh_env_sinks(monkeypatch):
    """No explicit sink and no cached env sink; the env sinks a test
    selects are closed after it, and the previous state restored."""
    cached = ((tracer_mod, "_env_tracer"), (log_mod, "_env_log"))
    for mod, name in cached:
        monkeypatch.setattr(mod, "_explicit", None)
        monkeypatch.setattr(mod, name, None)
        monkeypatch.setattr(mod, "_env_path", None)
    yield
    for mod, name in cached:
        if getattr(mod, name) is not None:
            getattr(mod, name).close()


@pytest.fixture
def missing(tmp_path):
    return str(tmp_path / "no-such-dir" / "out.jsonl")


def _assert_names(exc_info, variable, path):
    message = str(exc_info.value)
    assert variable in message and path in message
    assert isinstance(exc_info.value.__cause__, OSError)


def test_unwritable_trace_raises_from_the_first_solve(monkeypatch, missing):
    monkeypatch.setenv("REPRO_TRACE", missing)
    with pytest.raises(InvalidParameterError) as info:
        parallel_greedy(euclidean_instance(6, 20, seed=0), epsilon=0.1, seed=0)
    _assert_names(info, "REPRO_TRACE", missing)


def test_unwritable_log_raises_from_a_supervised_batch(monkeypatch, missing):
    monkeypatch.setenv("REPRO_LOG", missing)
    with pytest.raises(InvalidParameterError) as info:
        supervised_submit_batch(SerialBackend(), abs, [-1, 2])
    _assert_names(info, "REPRO_LOG", missing)


def test_directory_path_is_rejected(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_LOG", str(tmp_path))
    with pytest.raises(InvalidParameterError) as info:
        current_log()
    _assert_names(info, "REPRO_LOG", str(tmp_path))


@pytest.mark.parametrize("variable, select", [("REPRO_TRACE", current_tracer), ("REPRO_LOG", current_log)])
def test_check_never_truncates_an_existing_file(monkeypatch, tmp_path, variable, select):
    path = tmp_path / "existing.jsonl"
    path.write_text('{"kept": true}\n')
    monkeypatch.setenv(variable, str(path))
    assert select().enabled
    assert path.read_text() == '{"kept": true}\n'


def test_writable_paths_still_record(monkeypatch, tmp_path):
    trace, log = tmp_path / "t.jsonl", tmp_path / "l.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(trace))
    monkeypatch.setenv("REPRO_LOG", str(log))
    sol = parallel_greedy(euclidean_instance(6, 20, seed=0), epsilon=0.1, seed=0)
    current_log().event("checked", opened=int(np.sum(sol.opened)))
    current_tracer().flush()
    current_log().flush()
    assert trace.stat().st_size > 0 and log.stat().st_size > 0


def test_explicit_sinks_open_lazily(missing):
    # constructing or installing an explicit sink never touches disk
    Tracer(missing)
    EventLog(missing)
    with trace_to(missing), log_to(missing):
        pass
    with pytest.raises(OSError):
        Tracer(missing).instant("first", "test")


@pytest.mark.parametrize("variable", ["REPRO_TRACE", "REPRO_LOG"])
def test_server_refuses_to_start(monkeypatch, missing, variable):
    monkeypatch.setenv(variable, missing)
    with pytest.raises(InvalidParameterError) as info:
        serve_in_thread(ServerConfig(backend="serial", workers=1))
    _assert_names(info, variable, missing)
