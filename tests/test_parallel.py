"""run_tasks: results in task order, errors raised here, no worker left."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import pytest

from rolealign import parallel
from rolealign.parallel import run_tasks

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(params=[1, 3])
def cpus(request, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: request.param)
    return request.param


def fail(exc):
    raise exc


def test_results_come_back_in_task_order(cpus):
    assert run_tasks([partial(pow, i, 2) for i in range(7)]) == \
        [i * i for i in range(7)]
    pids = run_tasks([os.getpid] * 5)
    assert pids[0] == os.getpid()   # the first task runs here
    assert len(set(pids)) == cpus   # one process per usable CPU
    assert run_tasks([]) == []
    assert multiprocessing.active_children() == []


def test_the_first_failing_task_in_task_order_raises(cpus):
    tasks = [partial(int, "1"), partial(fail, ValueError("second")),
             partial(int, "3"), partial(fail, KeyError("fourth"))]
    with pytest.raises(ValueError, match="second"):
        run_tasks(tasks)
    assert multiprocessing.active_children() == []


def test_an_error_here_stops_the_workers(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    start = time.perf_counter()
    with pytest.raises(KeyError):
        run_tasks([partial(fail, KeyError("here")), partial(time.sleep, 60)])
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_is_an_error(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        run_tasks([partial(int, "0"), partial(os._exit, 3)])
    assert multiprocessing.active_children() == []


def test_one_cpu_while_another_thread_runs():
    # a forked child would inherit whatever locks that thread holds
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert parallel.usable_cpus() == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert parallel.usable_cpus() == len(os.sched_getaffinity(0))


def test_importing_the_cli_does_not_load_multiprocessing():
    # its import would add to every run's start-up time
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rolealign.cli; "
         "print(sorted(m for m in sys.modules if 'multiprocessing' in m))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
