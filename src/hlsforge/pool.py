"""One pool of forked worker processes for every per-design job.

Lowering, tool-flow chains and report extraction all run here. Lowering, mock
flows and extraction are pure Python and hold the interpreter lock, so threads
could not overlap them; processes can, and a worker running an external flow
just waits on its tool. ``fork_map`` starts a pool for one call and shuts it
down before returning, so the children's CPU time is accounted to the caller
and no worker outlives the stage. The workers are forked, not spawned: the
function and the items reach them through the fork itself, so only item
indices are sent and only results come back. Call it where the calling process
runs no other thread; the pool forks all its workers before it starts its own
manager thread.
"""

from __future__ import annotations

import os
import signal

# chunks per worker in one map: enough to even out the tail, few enough that
# the per-chunk round trip stays small next to the work in it
CHUNKS_PER_WORKER = 32

# in a pool process: the mapped function, the items and this worker's
# (index, pinned core); set once by _start_worker
_worker_state: dict = {}


def local_workers() -> int:
    """Cores this process may run on: the worker count for lowering and extraction."""
    return len(os.sched_getaffinity(0))


def pin_to_core(worker_index: int) -> int | None:
    """Best-effort affinity of the calling process to one of the cores it may run
    on: the (worker_index mod their number)-th, counting in core order."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
        core = allowed[worker_index % len(allowed)]
        os.sched_setaffinity(0, {core})
        return core
    except (AttributeError, OSError):
        return None


def current_worker() -> tuple[int, int | None]:
    """(index, pinned core) of the pool process running this; (0, None) outside a pool."""
    return _worker_state.get("worker", (0, None))


def _start_worker(fn, items, indices, pin_cores: bool) -> None:
    # once one worker has exited, the pool stops the others with SIGTERM: unwind
    # as from Ctrl-C, so a worker still waiting on a tool kills it first
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    index = indices.get()
    _worker_state.update(fn=fn, items=items,
                         worker=(index, pin_to_core(index) if pin_cores else None))


def _call(position: int):
    try:
        return _worker_state["fn"](_worker_state["items"][position])
    except KeyboardInterrupt:
        # the pool would send it back as a result and hand this worker the next
        # item; exiting breaks the pool, which stops the other workers too
        os._exit(130)


def fork_map(fn, items: list, n_workers: int, pin_cores: bool = False,
             chunksize: int | None = None) -> list:
    """[fn(item) for item in items], in order, on n_workers forked processes.

    It runs in the calling process when there is at most one worker or item
    and no pinning; with pinning it always forks, so the caller's own affinity
    never changes. Items go out in chunks of chunksize, by default about
    CHUNKS_PER_WORKER chunks per worker; pass 1 when items take long enough
    that each should go to the next free worker. An exception fn raises
    propagates, so fn should turn per-item failures into results. A worker
    interrupted by Ctrl-C exits at once and takes no further item.
    """
    n_workers = min(n_workers, len(items))
    if n_workers == 0 or (n_workers == 1 and not pin_cores):
        return [fn(item) for item in items]
    # imported here: these take 20-40 ms to import, against about 120 ms for
    # the whole package, and only a pool needs them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    indices = context.SimpleQueue()
    try:
        for index in range(n_workers):
            indices.put(index)
        chunksize = chunksize or max(1, len(items) // (n_workers * CHUNKS_PER_WORKER))
        with ProcessPoolExecutor(n_workers, mp_context=context, initializer=_start_worker,
                                 initargs=(fn, items, indices, pin_cores)) as pool:
            return list(pool.map(_call, range(len(items)), chunksize=chunksize))
    finally:
        indices.close()
