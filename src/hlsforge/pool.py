"""One pool of forked worker processes for every per-design job.

Lowering, tool-flow chains and report extraction all run here. Lowering, mock
flows and extraction are pure Python and hold the interpreter lock, so threads
could not overlap them; processes can, and a worker running an external flow
just waits on its tool.

``fork_imap`` forks its workers for one map and reaps them before it ends, so
the children's CPU time is accounted to the caller and no worker outlives the
stage. The function and the items reach the workers through the fork itself.
Each worker has two pipes of its own: the parent writes the positions of the
worker's next chunk of items to one, and the worker writes the chunk's results
back, pickled and length-prefixed, to the other. The parent waits on every
result pipe at once (``selectors``). A worker gets its next chunk only once it
has sent the results of the one it holds, so with chunks of one item each item
goes to the next free worker, in item order, as ``executor.simulate_schedule``
models. Before each item a worker writes its position to a slot in memory it
shares with the parent, so the parent learns which item a worker was running
without being woken for every item. Each worker also holds a mark, a
descriptor of a pipe of its own that every tool it starts inherits
(``tool_fds``), and with it every process such a tool spawns.

A worker that dies (the OOM killer, a tool that kills its parent) closes its
result pipe early. The parent then makes the result of the item it was running
with the caller's ``on_lost``, kills the process group of every process that
holds the worker's mark (its tools run in sessions of their own, so they would
outlive it; the mark is theirs from their first instruction, so even a tool
that kills its worker at once is found), forks a fresh worker with the same
index, hands the rest of the dead worker's chunk to the next free worker and
goes on with the map; the other workers and their tools are left alone.

Ctrl-C reaches the workers as ``KeyboardInterrupt``, and so does the SIGTERM
the parent sends them when a map ends early (an exception, an interrupt, an
abandoned generator): a worker waiting on a tool kills the tool's process
group (``toolflows._run_external``), then exits. Fork only where the calling
process runs no other thread.
"""

from __future__ import annotations

import os
import selectors
import signal
import sys
import traceback

from .errors import WorkerLost

# chunks per worker in one map: enough to even out the tail, few enough that
# the per-chunk round trip stays small next to the work in it
CHUNKS_PER_WORKER = 32

# in a pool process: this worker's index, and its mark; both set once after the fork
_worker = 0
_mark: int | None = None


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


def current_worker() -> int:
    """The index of the pool process running this; 0 outside a pool."""
    return _worker


def tool_fds() -> tuple[int, ...]:
    """The descriptors a tool started here inherits: in a pool process the worker's
    mark, by which the parent finds the tools of a worker that died; outside, none."""
    return () if _mark is None else (_mark,)


def _readlink(path: str) -> str:
    try:
        return os.readlink(path)
    except OSError:  # closed while we looked
        return ""


def _kill_holders(mark: str) -> None:
    """SIGKILL the process group of every process that holds the pipe mark names
    (Linux /proc), never the caller's own group."""
    own = os.getpgrp()
    try:
        pids = [pid for pid in os.listdir("/proc") if pid.isdigit()]
    except OSError:  # no /proc: nothing to find
        return
    for pid in pids:
        fds = f"/proc/{pid}/fd"
        try:
            if mark in (_readlink(f"{fds}/{fd}") for fd in os.listdir(fds)) \
                    and (group := os.getpgid(int(pid))) != own:
                os.killpg(group, signal.SIGKILL)
        except OSError:  # it exited while we looked, or it is not ours to read
            continue


def _flush_stdio() -> None:
    """Flush what print() has buffered: a forked child that flushes a buffer it
    inherited writes it a second time."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):  # no stream, a closed one, a broken pipe
            pass


def _send(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _frames(buffer: bytearray):
    """Take each whole length-prefixed frame off the front of buffer."""
    while len(buffer) >= 4:
        end = 4 + int.from_bytes(buffer[:4], "little")
        if len(buffer) < end:
            return
        frame = buffer[4:end]
        del buffer[:end]
        yield frame


def _settle(reply: tuple):
    """The result of a worker's (ok, result or exception) reply, or its exception raised."""
    ok, value = reply
    if not ok:
        raise value
    return value


class _Worker:
    """The parent's end of one worker: its pipes, the bytes read from it that
    make no whole frame yet, and the positions of the items it holds, in order."""

    __slots__ = ("index", "pid", "tasks", "results", "mark", "unread", "held")

    def __init__(self, index: int, pid: int, tasks: int, results: int, mark: str):
        self.index, self.pid, self.tasks, self.results = index, pid, tasks, results
        self.mark = mark  # what /proc/<pid>/fd/<n> reads for a descriptor of its mark
        self.unread = bytearray()
        self.held = range(0)


def fork_imap(fn, items: list, n_workers: int, pin_cores: bool = False,
              chunksize: int | None = None, on_lost=None):
    """Yield fn(item) for each item, in item order, as n_workers forked
    processes send the results back.

    It runs in the calling process when there is at most one worker or item
    and no pinning; with pinning it always forks, so the caller's own affinity
    never changes. Items go out in chunks of chunksize, by default about
    CHUNKS_PER_WORKER chunks per worker; pass 1 when items take long enough
    that each should go to the next free worker. An exception fn raises
    propagates in item order, after the results of every earlier item and
    once every worker is stopped, so fn should turn per-item failures into
    results. A worker that dies costs the item it was running:
    on_lost(item), called here, makes its result (without on_lost the map
    raises WorkerLost). The rest of its chunk goes to the next free worker,
    and the items of it that had finished run again, since their results
    were lost with the worker.
    """
    n_workers = min(n_workers, len(items))
    if n_workers == 0 or (n_workers == 1 and not pin_cores):
        yield from map(fn, items)
        return
    # imported here: only a pool needs them, and the package imports faster without them
    import mmap
    import pickle

    n_items = len(items)
    chunksize = chunksize or max(1, n_items // (n_workers * CHUNKS_PER_WORKER))
    workers: dict[int, _Worker] = {}  # by result pipe
    selector = selectors.DefaultSelector()
    # shared with the workers, a slot each: the item it is running (-1 between chunks)
    running = memoryview(mmap.mmap(-1, 8 * n_workers)).cast("q")
    next_start = 0  # the first item no worker has been given
    received = 0  # results in, from fn or on_lost
    requeued: list[range] = []  # items a lost worker held, but not the one it died on
    done: dict = {}  # position -> (ok, result or exception), until every earlier one is yielded

    def serve(index: int, tasks: int, results: int) -> None:  # the worker's loop
        while message := os.read(tasks, 16):  # empty once the parent closes the pipe
            frames = []
            for position in range(int.from_bytes(message[:8], "little"),
                                  int.from_bytes(message[8:], "little")):
                running[index] = position
                try:
                    reply = pickle.dumps((True, fn(items[position])))
                except Exception as exc:  # from fn, or a result that does not pickle
                    reply = pickle.dumps((False, exc))
                frames.append(len(reply).to_bytes(4, "little") + reply)
            running[index] = -1
            _send(results, b"".join(frames))  # one write a chunk: the parent wakes once

    def fork(index: int) -> _Worker:
        global _worker, _mark
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        mark, unused = os.pipe()  # only its identity counts
        os.close(unused)
        running[index] = -1
        _flush_stdio()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # the parent stops a map early with SIGTERM: unwind as from Ctrl-C,
                # so a worker waiting on a tool kills it first
                signal.signal(signal.SIGTERM, signal.default_int_handler)
                for other in workers.values():
                    os.close(other.tasks)
                    os.close(other.results)
                os.close(task_w)
                os.close(result_r)
                _worker = index
                if pin_cores:
                    pin_to_core(index)
                _mark = mark
                serve(index, task_r, result_w)
                code = 0
            except KeyboardInterrupt:
                code = 130
            except BaseException:
                traceback.print_exc()
            finally:
                try:
                    _flush_stdio()
                finally:
                    os._exit(code)
        os.close(task_r)
        os.close(result_w)
        worker = workers[result_r] = _Worker(index, pid, task_w, result_r,
                                             f"pipe:[{os.fstat(mark).st_ino}]")
        os.close(mark)  # no later worker inherits it
        selector.register(result_r, selectors.EVENT_READ, worker)
        return worker

    def assign(worker: _Worker) -> None:
        nonlocal next_start
        if requeued:
            worker.held = requeued.pop(0)
        else:
            worker.held = range(next_start, min(next_start + chunksize, n_items))
            next_start += chunksize
        try:
            _send(worker.tasks, worker.held.start.to_bytes(8, "little")
                  + worker.held.stop.to_bytes(8, "little"))
        except BrokenPipeError:  # it died idle: its result pipe is at EOF, and it held nothing
            requeued.append(worker.held)
            worker.held = range(0)

    def lose(worker: _Worker) -> None:
        nonlocal received
        selector.unregister(worker.results)
        del workers[worker.results]
        os.close(worker.results)
        os.close(worker.tasks)
        _, status = os.waitpid(worker.pid, 0)
        _kill_holders(worker.mark)  # its tools, and every process they spawned
        held = worker.held
        if held:
            # the item it died on; outside fn, the first of its chunk, so that every
            # loss settles one item and a map always ends
            lost = running[worker.index]
            lost = lost if lost in held else held.start
            if on_lost is None:
                raise WorkerLost(f"pool worker {worker.index} (pid {worker.pid}) exited with "
                                 f"status {os.waitstatus_to_exitcode(status)} running item "
                                 f"{lost}")
            done[lost] = True, on_lost(items[lost])
            received += 1
            # the rest of its chunk runs again, the items it finished included:
            # their results went down with it
            requeued.extend(part for part in (range(held.start, lost), range(lost + 1, held.stop))
                            if part)
        if requeued or next_start < n_items:
            assign(fork(worker.index))

    position = 0  # of the next result to yield
    try:
        for index in range(n_workers):
            fork(index)
        for worker in list(workers.values()):  # only once every worker is forked
            assign(worker)
        while received < n_items:
            for key, _ in selector.select():
                worker = key.data
                data = os.read(worker.results, 1 << 16)
                if not data:
                    lose(worker)
                    continue
                worker.unread += data
                for frame in _frames(worker.unread):
                    done[worker.held.start] = pickle.loads(frame)
                    worker.held = worker.held[1:]
                    received += 1
                if not worker.held and (requeued or next_start < n_items):
                    assign(worker)
            while position in done and received < n_items:  # the last ones wait for the reaping
                yield _settle(done.pop(position))
                position += 1
    finally:
        for worker in workers.values():
            os.close(worker.tasks)  # an idle worker reads EOF and exits
            if received < n_items:
                os.kill(worker.pid, signal.SIGTERM)
        for worker in workers.values():
            os.waitpid(worker.pid, 0)
            os.close(worker.results)
        selector.close()
        running.release()
    for position in range(position, n_items):
        yield _settle(done.pop(position))

