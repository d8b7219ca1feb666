"""Forked worker processes: the one place swlme forks, kills and reaps a process.

start(fn, what) forks a worker that runs fn() and sends back its value or
exception, and the warnings it caught, pickled through a pipe; the worker
always ends with os._exit, so it runs no exit handler and flushes no
buffer it inherited.  Worker.result() reaps it and returns the value,
raises the exception or, if the worker was lost, raises RuntimeError("<what>:
worker process ended with signal N after sending K bytes", or "status N").
Its users: the snapshot writer of `run` (swlme.cli), and _fan_out, which
maps `check`'s identity blocks and `converge`'s meshes (swlme.diagnostics)
in serial order with the tail in a worker.
"""

from __future__ import annotations

import os
import pickle
import warnings


def _cpus() -> int:
    """CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class Worker:
    """A forked process running fn; made by start."""

    def __init__(self, pid: int, pipe, what: str):
        self.pid, self.pipe, self.what = pid, pipe, what

    def kill(self) -> None:
        """End the worker without its outcome, and reap it."""
        from signal import SIGKILL  # not at import: the signal module adds 0.3 MiB to every command
        os.kill(self.pid, SIGKILL)
        self.pipe.close()
        os.waitpid(self.pid, 0)

    def result(self):
        """fn's value, or what fn raised; reaps the worker, killing it if the wait breaks off."""
        try:
            data = self.pipe.read()
        except BaseException:
            self.kill()
            raise
        self.pipe.close()
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        try:
            (ok, value), caught = pickle.loads(data)
        except Exception:
            ended = f"signal {-code}" if code < 0 else f"status {code}"
            raise RuntimeError(f"{self.what}: worker process ended with {ended} after sending "
                               f"{len(data)} bytes") from None
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        if not ok:
            raise value
        return value


def start(fn, what: str) -> Worker | None:
    """Fork a worker that runs fn(); None if no process can be forked, for fn to run here."""
    if not hasattr(os, "fork"):
        return None
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        # a worker may run numpy, BLAS included: OpenBLAS stops its own threads
        # around a fork (pthread_atfork), and swlme starts none
        status = 1
        try:
            os.close(r)
            with warnings.catch_warnings(record=True) as caught:
                try:
                    outcome = (True, fn())
                except Exception as err:
                    outcome = (False, err)
            try:
                data = pickle.dumps((outcome, [(c.message, c.category, c.filename, c.lineno)
                                               for c in caught]), pickle.HIGHEST_PROTOCOL)
                pickle.loads(data)  # an exception whose arguments do not round-trip, say
            except Exception as err:
                data = pickle.dumps(((False, RuntimeError(f"{what}: {outcome[1]!r} does not "
                                                          f"pickle: {err!r}")), []))
            with open(w, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return Worker(pid, open(r, "rb"), what)


def _fan_out(work, items: list, cut: int, what: str) -> list:
    """[work(item) for item in items], with items[cut:] in a forked worker.

    The caller works through items[:cut] in order and kills the worker if
    one of them raises (KeyboardInterrupt included); the worker's first
    exception is raised after that, so the error raised is the one the
    serial loop meets first.  Everything runs here unless
    0 < cut < len(items), two CPUs are usable and a process can be forked.
    """
    if (not 0 < cut < len(items) or _cpus() < 2
            or (worker := start(lambda: [work(item) for item in items[cut:]], what)) is None):
        return [work(item) for item in items]
    try:
        head = [work(item) for item in items[:cut]]
    except BaseException:
        worker.kill()
        raise
    return head + worker.result()
