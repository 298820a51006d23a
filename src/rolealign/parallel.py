"""Independent tasks on every CPU this process may use.

``run_tasks`` runs its first task in this process while forked worker
processes start on the others; from then on each process, this one
included, claims the next unclaimed task whenever it is free, so a long
first task does not leave the workers a fixed share.  A worker inherits
what its tasks read (a parsed dataset, the input bytes) through fork, so
nothing is pickled on the way in; only each task's result, or its
exception, is pickled back through a pipe.  Where fork is unavailable
or unsafe (anywhere but Linux, or in a process running a second Python
thread, which a fork would leave holding whatever locks it held), where
one CPU is usable, and for more than 1025 tasks (``QUEUE_BYTES``), every
task runs in this process, in order.

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


# the task indices a pipe is sure to hold before any is read: one page,
# the least a Linux pipe holds (64 KiB unless the user's pipes exceed
# their limit)
QUEUE_BYTES = 4096


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask); 1 where workers
    are not forked: anywhere but Linux, and while another thread runs."""
    if not sys.platform.startswith("linux") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _claim(queue):
    """The index of the next unclaimed task in the pipe ``queue``, or None
    once it is empty.  Every index is written before the first is claimed
    and a read of at most PIPE_BUF bytes is atomic, so each index goes to
    exactly one reader."""
    record = os.read(queue, 4)
    return int.from_bytes(record, "little") if record else None


def _work(tasks, queue):
    """For each task index claimed from ``queue`` until it is empty, (True,
    its result) or (False, the exception it raised).  After a failure the
    rest of the queue is emptied unclaimed: every task before it was
    claimed already, and no later one can change which error is
    raised."""
    outcomes = {}
    while (i := _claim(queue)) is not None:
        try:
            outcomes[i] = True, tasks[i]()
        except Exception as exc:   # noqa: BLE001 - raised by the parent
            outcomes[i] = False, exc
            while os.read(queue, 1 << 16):
                pass
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


def _start(tasks, queue, cpu):
    """A forked worker, on CPU ``cpu``, running the ``tasks`` it claims from
    ``queue``: its pid and the read end of its result pipe.  The worker
    holds the only write end, so the parent reads EOF once it has exited;
    it exits with code 1, its traceback on stderr, when it cannot send its
    outcomes."""
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
        os.sched_setaffinity(0, {cpu})
        _send(writer, _work(tasks, queue))
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


def _queue(n):
    """The read end of a pipe holding the task indices 1 to n - 1, each in
    4 bytes, its write end closed.  At most ``QUEUE_BYTES`` are written,
    so the write never waits for a reader."""
    reader, writer = os.pipe()
    with os.fdopen(writer, "wb") as pipe:
        pipe.write(struct.pack(f"<{n - 1}I", *range(1, n)))
    return reader


def run_tasks(tasks) -> list:
    """``[task() for task in tasks]``, the tasks spread over W processes.

    W is ``usable_cpus()`` capped by the number of tasks, and 1 for more
    than 1025 tasks (their indices would not fit the queue).  This process
    runs the first task while W - 1 forked workers claim the others, one
    at a time and in task order; once its first task is done, this
    process claims tasks too.  So the work is shared by demand: which
    process runs which task depends on how long each takes.  With W = 1
    this process runs every task.  While they run, this process and each
    worker keep to one CPU of this process's affinity mask, a different
    one each while the mask has enough; the mask is restored on return.
    Tasks are called without arguments and must not depend on each
    other's side effects.  If any task raises, the exception of the first
    such task in task order is raised here, once every worker has exited.
    """
    tasks = list(tasks)
    n = len(tasks)
    w = min(usable_cpus(), n)
    if w < 2 or 4 * (n - 1) > QUEUE_BYTES:
        return [task() for task in tasks]
    queue = _queue(n)
    results, workers, waiting = [None] * n, [], []
    exited = {}   # worker pid: exit code, once waited for
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, cpus[:1])
        for j in range(1, w):
            workers.append(_start(tasks, queue, cpus[j % len(cpus)]))
            waiting.append(workers[-1])
        # the first task in task order: its exception is the one to raise,
        # and the workers are stopped
        results[0] = tasks[0]()
        outcomes = _work(tasks, queue)
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
        os.close(queue)
        if waiting:
            import signal

            for pid, _ in waiting:
                os.kill(pid, signal.SIGTERM)
        for pid, reader in workers:
            os.close(reader)   # a worker still writing now fails and exits
            if pid not in exited:
                exited[pid] = _exit_code(pid)
        os.sched_setaffinity(0, cpus)
    for i in sorted(outcomes):
        ok, results[i] = outcomes[i]
        if not ok:
            raise results[i]
    return results
