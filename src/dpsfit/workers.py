"""Forked worker processes, shared by the split fit and the bootstrap.

One rule, :func:`usable_cpus`, says how many processes may work at once,
and both ask it: a fork is allowed only on Linux, outside a process that
:mod:`multiprocessing` started, and with no other Python thread running,
whose locks a forked child could inherit held.

One protocol, :func:`fork_pool`, runs their tasks.  The workers are forked
with the pool's inputs already in memory, so only each task's arguments
and result are pickled.  A worker ignores SIGINT: an interrupt is the
parent's to handle, and it leaves the pool, which cancels the queued
tasks and lets the running ones finish.  A worker records the warnings its
task issues and hands them back with its result or exception, and the
parent issues them as it takes each one; the exception keeps its own type.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import warnings


def usable_cpus() -> int:
    """CPUs this process may run work on: its affinity mask.

    It is one on another platform than Linux, where ``fork`` is not safe;
    in a process that :mod:`multiprocessing` started, taken to be one
    worker of a pool that already runs a process per usable CPU; and in a
    process that runs other Python threads, whose own work would fork for
    the same CPUs.
    """
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    return len(os.sched_getaffinity(0))


def fork_pool(workers: int, inputs: tuple) -> _Pool:
    """A pool of ``workers`` processes started by ``fork``, each holding
    ``inputs``, which reach them by the fork, unpickled."""
    return _Pool(workers, inputs)


class _Pool:
    """The pool :func:`fork_pool` returns.  Use it as a context manager:
    leaving it, on any path, cancels the tasks not yet started and waits
    for the running ones."""

    def __init__(self, workers: int, inputs: tuple):
        # Imported here: at module level the pool machinery would add about
        # a tenth to `import dpsfit.cli`, which every command pays.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # A forked worker starts with its inputs in memory; a spawned one
        # would first import numpy and dpsfit, about 0.07 s.
        self._executor = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker,
            initargs=(inputs,),
        )
        # One registry for the pool, so under the default filters a warning
        # that several tasks issue is shown once, as in this process.
        self._registry: dict = {}

    def __enter__(self) -> _Pool:
        return self

    def __exit__(self, *exc) -> None:
        self._executor.shutdown(cancel_futures=True)

    def submit(self, task, *args):
        """Run ``task(*inputs, *args)`` in a worker; ``task`` is pickled by
        its qualified name.  Returns the future of its result."""
        return self._executor.submit(_recording_warnings, task, *args)

    def result(self, future):
        """Issue here the warnings of ``future``'s task, then return its
        result or raise its exception."""
        error = future.exception()
        result, caught = future.result() if error is None else (None, getattr(error, "dpsfit_warnings", ()))
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=self._registry)
        if error is not None:
            raise error
        return result


# Set in each worker by ``_start_worker``, never in the parent.
_inputs: tuple = ()


def _start_worker(inputs: tuple) -> None:
    global _inputs
    _inputs = inputs
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _recording_warnings(task, *args):
    """``task(*_inputs, *args)`` in a worker, with the warnings it issued.

    A worker's ``sys.stderr`` may be a copy of a stream the parent
    redirected, so a warning shown there would be lost; every warning is
    recorded instead and handed back for :meth:`_Pool.result`.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return task(*_inputs, *args), _records(caught)
        except Exception as error:
            error.dpsfit_warnings = _records(caught)  # pickled with the exception's __dict__
            raise


def _records(caught) -> list[tuple]:
    return [(w.message, w.category, w.filename, w.lineno) for w in caught]
