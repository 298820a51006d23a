"""Independent tasks on every CPU this process may use.

``run_tasks`` runs its first task in this process while forked worker
processes run the others.  A worker inherits what its tasks read (a parsed
dataset, the input text) through fork, so nothing is pickled on the way
in; only each task's result, or its exception, is pickled back through a
pipe.  Where fork is unavailable or unsafe (anywhere but Linux, or in a
process running a second Python thread, which a fork would leave holding
whatever locks it held), and where one CPU is usable, every task runs in
this process, in order.

Each process is pinned to its own CPU while the tasks run.  Left to the
scheduler, a forked worker stayed on its parent's CPU in 8 of 20 trials on
a 2-vCPU VM, and both processes then ran at half speed for the whole task.

The ``compare`` command's soft and hard branches, the ``context`` command's
fits, and the CSV and JSONL parsers' parts run through ``run_tasks``.

Workers are started with ``os.fork`` and send their pickled outcomes
through an ``os.pipe``: ``multiprocessing`` (about 9 ms to import and set
up, on every run that forks) is not used.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
import threading


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask); 1 where workers
    are not forked: anywhere but Linux, and while another thread runs."""
    if not sys.platform.startswith("linux") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _work(tasks, share, cpu):
    """Worker body, on CPU ``cpu``: for i in ``share``, (True, tasks[i]())
    or (False, the exception it raised)."""
    os.sched_setaffinity(0, {cpu})
    outcomes = {}
    for i in share:
        try:
            outcomes[i] = True, tasks[i]()
        except Exception as exc:   # noqa: BLE001 - raised by the parent
            outcomes[i] = False, exc
    return outcomes


def _send(fd, obj):
    """``obj`` pickled to the pipe ``fd``: the number and sizes of the
    parts, then the pickle and the buffers it holds out of band (numpy
    arrays, written without a copy: a 4.8 MB result then takes half the
    time)."""
    buffers = []
    parts = [pickle.dumps(obj, 5, buffer_callback=buffers.append)]
    parts += [b.raw() for b in buffers]
    with os.fdopen(fd, "wb") as pipe:
        pipe.write(struct.pack(f"<{len(parts) + 1}Q", len(parts),
                               *map(len, parts)))
        for part in parts:
            pipe.write(part)


def _receive(fd):
    """What ``_send`` wrote to the pipe ``fd``, read into one buffer, or
    None when the pipe ends sooner."""
    with os.fdopen(fd, "rb", closefd=False) as pipe:
        head = pipe.read(8)
        count = int.from_bytes(head, "little")
        head += pipe.read(8 * count)
        if not count or len(head) < 8 * (count + 1):
            return None
        sizes = struct.unpack_from(f"<{count}Q", head, 8)
        data = memoryview(bytearray(sum(sizes)))
        if pipe.readinto(data) < len(data):
            return None
    parts, at = [], 0
    for size in sizes:
        parts.append(data[at:at + size])
        at += size
    return pickle.loads(parts[0], buffers=parts[1:])


def _start(tasks, share, cpu):
    """A forked worker running ``share`` of ``tasks`` on CPU ``cpu``: its
    pid and the read end of its result pipe.  The worker holds the only
    write end, so the parent reads EOF once it has exited; it exits with
    code 1, its traceback on stderr, when it cannot send its outcomes."""
    reader, writer = os.pipe()
    sys.stdout.flush()   # or the worker would write the buffers out again
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        os.close(writer)
        return pid, reader
    code = 1
    try:
        os.close(reader)
        _send(writer, _work(tasks, share, cpu))
        code = 0
    except Exception:   # noqa: BLE001 - the worker's boundary
        import traceback

        traceback.print_exc()
    finally:   # never return into the caller's code
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def _exit_code(pid):
    """Wait for worker ``pid``; its exit code, or -N if signal N ended
    it."""
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def run_tasks(tasks) -> list:
    """``[task() for task in tasks]``, the tasks spread over W processes.

    W is ``usable_cpus()`` capped by the number of tasks.  This process
    runs the first task while W - 1 forked workers run the rest, worker j
    (from 1) the tasks j, j + W - 1, j + 2 (W - 1), ...; with W = 1 this
    process runs every task.  While they run, this process and each worker
    keep to one CPU of this process's affinity mask, a different one each
    while the mask has enough; the mask is restored on return.  Tasks are
    called without arguments and must not depend on each other's side
    effects.  If any task raises, the exception of the first such task in
    task order is raised here, once every worker has exited.
    """
    tasks = list(tasks)
    n = len(tasks)
    w = min(usable_cpus(), n)
    results, outcomes, workers, waiting = [None] * n, {}, [], []
    exited = {}   # worker pid: exit code, once waited for
    cpus = sorted(os.sched_getaffinity(0)) if w > 1 else []
    try:
        if cpus:
            os.sched_setaffinity(0, cpus[:1])
        for j in range(1, w):
            workers.append(_start(tasks, range(j, n, w - 1),
                                  cpus[j % len(cpus)]))
            waiting.append(workers[-1])
        # this process's tasks come first in task order, so an exception
        # of theirs is the one to raise, and the workers are stopped
        for i in range(n) if w < 2 else (0,):
            results[i] = tasks[i]()
        while waiting:
            pid, reader = waiting.pop(0)
            received = _receive(reader)
            if received is None:
                exited[pid] = _exit_code(pid)
                raise RuntimeError(f"a worker process exited with code "
                                   f"{exited[pid]} before sending its "
                                   f"results")
            outcomes.update(received)
    finally:
        if waiting:
            import signal

            for pid, _ in waiting:
                os.kill(pid, signal.SIGTERM)
        for pid, reader in workers:
            os.close(reader)   # a worker still writing now fails and exits
            if pid not in exited:
                exited[pid] = _exit_code(pid)
        if cpus:
            os.sched_setaffinity(0, cpus)
    for i in sorted(outcomes):
        ok, results[i] = outcomes[i]
        if not ok:
            raise results[i]
    return results
