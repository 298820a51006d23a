"""run_tasks: results in task order, errors raised here, no worker left."""

import os
import select
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import pytest

from rolealign import parallel
from rolealign.parallel import run_tasks

from oracles import no_child_process

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(params=[1, 3])
def cpus(request, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: request.param)
    return request.param


def fail(exc):
    raise exc


def slow(seconds, fn, *args):
    time.sleep(seconds)
    return fn(*args)


def test_results_come_back_in_task_order(cpus, monkeypatch):
    assert run_tasks([partial(pow, i, 2) for i in range(7)]) == \
        [i * i for i in range(7)]
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    pids = run_tasks([os.getpid] * 5)
    assert pids[0] == os.getpid()   # the first task runs here
    assert len(forks) == cpus - 1   # one process per usable CPU
    assert len(set(pids)) <= cpus   # each task in one of them
    assert run_tasks([]) == []
    assert no_child_process()


def after_a_task_here(parent, reader, writer):
    """This process's pid.  Here it first marks the pipe readable; in a
    worker it waits (up to 10 s) until a task has run here."""
    if os.getpid() == parent:
        os.write(writer, b"x")
    else:
        select.select([reader], [], [], 10)
    return os.getpid()


def test_a_process_that_is_free_claims_the_next_task(monkeypatch):
    # a fast first task leaves this process to run more than one task,
    # rather than a fixed share of the others going to the worker: the
    # worker holds one task at a time until this process has run one
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    reader, writer = os.pipe()
    try:
        pids = run_tasks([os.getpid] + [partial(
            after_a_task_here, os.getpid(), reader, writer)] * 4)
    finally:
        os.close(reader)
        os.close(writer)
    assert pids[0] == os.getpid()
    assert pids.count(os.getpid()) > 1
    assert no_child_process()


def logged(fd, i):
    os.write(fd, i.to_bytes(4, "little"))   # appended at once
    return i


def test_every_task_is_claimed_exactly_once(monkeypatch, tmp_path):
    # more processes than CPUs and as many tasks as the queue holds: a
    # claim lost or made twice would leave an index out of the log or
    # write it twice
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 5)
    n = parallel.QUEUE_BYTES // 4 + 1
    fd = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        start = time.perf_counter()
        assert run_tasks([partial(logged, fd, i) for i in range(n)]) == \
            list(range(n))
        assert time.perf_counter() - start < 60
    finally:
        os.close(fd)
    log = (tmp_path / "log").read_bytes()
    assert sorted(int.from_bytes(log[k:k + 4], "little")
                  for k in range(0, len(log), 4)) == list(range(n))
    assert no_child_process()


def test_more_tasks_than_the_queue_holds_run_here(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    n = parallel.QUEUE_BYTES // 4 + 2
    assert run_tasks([os.getpid] * n) == [os.getpid()] * n
    assert not forks
    assert no_child_process()


def test_the_first_failing_task_in_task_order_raises(cpus):
    tasks = [partial(int, "1"), partial(fail, ValueError("second")),
             partial(int, "3"), partial(fail, KeyError("fourth"))]
    with pytest.raises(ValueError, match="second"):
        run_tasks(tasks)
    assert no_child_process()


def test_an_error_here_stops_the_workers(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    mask = os.sched_getaffinity(0)
    start = time.perf_counter()
    with pytest.raises(KeyError):
        run_tasks([partial(fail, KeyError("here")), partial(time.sleep, 60)])
    assert time.perf_counter() - start < 30
    assert no_child_process()
    assert os.sched_getaffinity(0) == mask


def test_each_process_keeps_to_one_cpu_while_the_tasks_run(cpus):
    mask = os.sched_getaffinity(0)
    seen = run_tasks([partial(slow, 0.05, lambda: (
        os.getpid(), frozenset(os.sched_getaffinity(0))))] * 6)
    assert os.sched_getaffinity(0) == mask   # restored here
    if cpus == 1:
        assert seen == [(os.getpid(), mask)] * 6
    else:   # process j on CPU j; CPUs are reused past the mask
        order = sorted(mask)
        assert seen[0] == (os.getpid(), {order[0]})
        assert len(dict(seen)) == len(set(seen))   # one CPU per process
        assert {cpu for _, cpu in seen} <= \
            {frozenset({order[j % len(order)]}) for j in range(cpus)}


def exit_in_a_worker(parent, writer, code):
    if os.getpid() != parent:   # never end the test's own process
        os.write(writer, b"x")
        os._exit(code)


def test_a_worker_that_dies_is_an_error(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    # this process's first task waits (up to 10 s) until the worker has
    # claimed the second, which ends the worker
    reader, writer = os.pipe()
    try:
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_tasks([partial(select.select, [reader], [], [], 10),
                       partial(exit_in_a_worker, os.getpid(), writer, 3)])
    finally:
        os.close(reader)
        os.close(writer)
    assert no_child_process()


def test_a_message_cut_short_reads_as_none():
    # as from a worker that died while it wrote its results
    import numpy as np

    reader, writer = os.pipe()
    parallel._send(writer, {3: (True, np.arange(5.0))})
    whole = os.read(reader, 1 << 16)
    os.close(reader)
    for cut in (0, 5, 8, 16, len(whole) - 1, len(whole)):
        reader, writer = os.pipe()
        os.write(writer, whole[:cut])
        os.close(writer)
        got = parallel._receive(reader)
        os.close(reader)
        if cut < len(whole):
            assert got is None
        else:
            assert list(got) == [3] and got[3][0] is True
            assert np.array_equal(got[3][1], np.arange(5.0))


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


def test_a_cli_run_that_forks_workers_does_not_load_multiprocessing(
        tmp_path):
    # workers are forked with os.fork and answer through an os.pipe
    from rolealign import generate_formation, sample_dataset
    from rolealign.ingest import write_tracking_csv

    ds, _ = sample_dataset(generate_formation(3, seed=5), 40, seed=5)
    path = tmp_path / "in.csv"
    write_tracking_csv(ds, path)
    script = (
        "import os, sys\n"
        "from rolealign import cli, ingest, parallel\n"
        "ingest.CSV_CHUNK_ROWS = 8\n"   # the parse runs in parts
        "parallel.usable_cpus = lambda: 2\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(os.getpid()) or fork()\n"
        f"code = cli.main(['discover', '--input', {str(path)!r}, '--k', "
        f"'3', '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, len(forks), "
        "sorted(m for m in sys.modules if 'multiprocessing' in m))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.splitlines()[-1] == "0 1 []"
