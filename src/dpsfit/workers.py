"""Forked worker processes, shared by the split fit and the bootstrap.

Both fork their workers with every input already in memory, so only each
task's arguments and result are pickled.  A worker records the warnings
its task issues and hands them back with the result, and the parent
issues them in task order; a task's exception reaches the parent through
its future, with its own type.
"""

from __future__ import annotations

import os
import sys
import warnings


def usable_cpus() -> int:
    """CPUs this process may run work on: its affinity mask where there is one.

    A process that :mod:`multiprocessing` started counts one: it is taken
    to be one worker of a pool that already runs a process per usable CPU,
    as the bootstrap's does.
    """
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fork_pool(workers: int, initializer, initargs: tuple):
    """A :class:`~concurrent.futures.ProcessPoolExecutor` of ``workers``
    processes started by ``fork``, each running ``initializer(*initargs)``
    first; the initial arguments reach them by the fork, unpickled."""
    # Imported here: at module level the pool machinery would add about a
    # tenth to `import dpsfit.cli`, which every command pays.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # A forked worker starts with its inputs in memory; a spawned one would
    # first import numpy and dpsfit, about 0.07 s.
    return ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=initializer,
        initargs=initargs,
    )


def recording_warnings(task, *args):
    """``task(*args)`` in a worker, with the warnings it issued.

    A worker's ``sys.stderr`` may be a copy of a stream the parent
    redirected, so a warning shown there would be lost; every warning is
    recorded instead and handed back for :func:`reissue_warnings`.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = task(*args)
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def reissue_warnings(recorded, registry: dict):
    """Issue the warnings of a :func:`recording_warnings` result here, and
    return its result.

    The warnings pass through this process's filters with ``registry``,
    one per run, so under the default filters a warning that several tasks
    of the run issue is shown once, as in this process.
    """
    result, caught = recorded
    for message, category, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno, registry=registry)
    return result
