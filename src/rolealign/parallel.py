"""Independent tasks on every CPU this process may use.

``run_tasks`` runs its first task in this process while forked worker
processes run the others.  A worker inherits what its tasks read (a parsed
dataset, the input text) through fork, so nothing is pickled on the way
in; only each task's result, or its exception, is pickled back through a
pipe.  Where fork is unavailable or unsafe (anywhere but Linux, or in a
process running a second Python thread, which a fork would leave holding
whatever locks it held), and where one CPU is usable, every task runs in
this process, in order.

``multiprocessing`` is imported only when a worker is started, so that
importing the package does not pay for it.
"""

from __future__ import annotations

import os
import sys
import threading


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask); 1 where workers
    are not forked: anywhere but Linux, and while another thread runs."""
    if not sys.platform.startswith("linux") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _work(conn, tasks, share):
    """Worker body: for i in ``share``, (True, tasks[i]()) or (False, the
    exception it raised), sent to the parent as one message."""
    outcomes = {}
    for i in share:
        try:
            outcomes[i] = True, tasks[i]()
        except Exception as exc:   # noqa: BLE001 - raised by the parent
            outcomes[i] = False, exc
    conn.send(outcomes)
    conn.close()


def _start(tasks, share):
    """A forked worker running ``share`` of ``tasks``, and the read end of
    its result pipe."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_work, args=(writer, tasks, share))
    proc.start()
    writer.close()   # the worker holds the only write end: EOF if it dies
    return proc, reader


def _receive(proc, reader):
    try:
        return reader.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"a worker process exited with code "
                           f"{proc.exitcode} before sending its "
                           f"results") from None


def run_tasks(tasks) -> list:
    """``[task() for task in tasks]``, the tasks spread over W processes.

    W is ``usable_cpus()`` capped by the number of tasks.  This process
    runs the first task while W - 1 forked workers run the rest, worker j
    (from 1) the tasks j, j + W - 1, j + 2 (W - 1), ...; with W = 1 this
    process runs every task.  Tasks are called without arguments and must
    not depend on each other's side effects.  If any task raises, the
    exception of the first such task in task order is raised here, once
    every worker has exited.
    """
    tasks = list(tasks)
    n = len(tasks)
    w = min(usable_cpus(), n)
    results, outcomes, workers, waiting = [None] * n, {}, [], []
    try:
        for j in range(1, w):
            workers.append(_start(tasks, range(j, n, w - 1)))
            waiting.append(workers[-1])
        # this process's tasks come first in task order, so an exception
        # of theirs is the one to raise, and the workers are stopped
        for i in range(n) if w < 2 else (0,):
            results[i] = tasks[i]()
        while waiting:
            outcomes.update(_receive(*waiting[0]))
            waiting.pop(0)
    finally:
        for proc, _ in waiting:
            proc.terminate()
        for proc, reader in workers:
            proc.join()
            reader.close()
    for i in sorted(outcomes):
        ok, results[i] = outcomes[i]
        if not ok:
            raise results[i]
    return results
