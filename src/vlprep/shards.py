"""One pass cut into contiguous shards, each run by its own process.

A pass over a regular file is cut at any byte into one shard per usable CPU,
but into no more shards than leave each at least :data:`MIN_SHARD_BYTES`,
when ``os.fork`` exists; each shard takes the lines that begin in its range,
and the parent reads no input byte to cut.  Any other pass is one shard, run
in this process by the same code.  Shard 0 runs in this process and writes
straight to the pass's sinks.  Each other shard runs in a forked worker,
which opens its own files, writes its lines to anonymous temporary part
files (unlinked from the start, so none outlives the run) and sends a small
result back through a pipe.  A sink that has a ``part_dir`` attribute gets
its parts made in that directory, so a file output's parts use the file's
own file system; any other sink's parts are made in the temporary directory.
As shard 0 and then each worker in shard order succeeds, the worker's parts
are copied to the sinks in fixed-size blocks, and :func:`run` adds the
result tuples column by column in shard order, so no output byte depends on
the number of shards.  Every sink is a UTF-8 text handle that
``cli._line_sink`` made, so a part is copied as bytes, the sink's text layer
flushed first.

A shard that fails stops the pass: its error is raised here as the shard
raised it, a worker's sent back pickled whole, so it is the error one
process would raise.  Shard 0's error is raised as it happens; a worker's
once shard 0 and every worker before it have succeeded, so of two failing
shards the earlier one's is raised.  The workers still running then are
killed, and every worker is waited for on every path.  A worker that ends
without a result is a :class:`PipelineError` too.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import stat
import sys
import tempfile
from typing import IO, Callable, Sequence

from . import jsonl
from .errors import PipelineError

# A shard smaller than this costs more in the fork, the part files and the
# copy than it saves.  Measured on 2 CPUs in fresh processes: a 128 KiB input
# was faster in one process for `validate` and `convert`, a 256 KiB input in
# two shards of 128 KiB.
MIN_SHARD_BYTES = 128 * 1024

# Parts are copied in blocks of the text layer's own chunk size: with 64 KiB
# blocks the parent's peak RSS grew by 4 MB over one `mix` copy.
_BLOCK = 8192


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split(total: int, nbytes: int) -> list[range]:
    """``range(total)`` cut into contiguous ranges, one per shard of a pass over about ``nbytes`` bytes.

    The one cut rule of every pass: a range per usable CPU, but no more
    ranges than leave each at least :data:`MIN_SHARD_BYTES` of ``nbytes`` and
    one item, and one range where ``os.fork`` does not exist.
    """
    n = max(1, min(usable_cpus(), nbytes // MIN_SHARD_BYTES, total)) if hasattr(os, "fork") else 1
    return [range(total * k // n, total * (k + 1) // n) for k in range(n)]


def line_pass(
    source: str | IO, work: Callable[[jsonl.Lines, Sequence[IO[str]]], tuple], sinks: Sequence = ()
) -> tuple:
    """``work(lines, handles)`` for each byte range of ``source``; its tuples added column by column, in shard order.

    A regular file's size is cut by :func:`split`, the last range running to
    the end; a handle, or a path that is not a regular file or cannot be
    stat'ed, counts as size 0, one range, and the reader names any fault.
    ``lines`` is :func:`jsonl.numbered_lines` over the range: the lines that
    begin in it, numbered and indexed as in the whole input, so a range in
    which no line begins has none.  Counts add, arrays concatenate, and a
    ``Counter`` keeps its keys in the order they first appear in the input.
    """
    size = 0
    if not hasattr(source, "read"):
        with contextlib.suppress(OSError):
            status = os.stat(source)
            size = status.st_size if stat.S_ISREG(status.st_mode) else 0
    cuts = [part.start for part in split(size, size)] + [None]
    return run(list(zip(cuts, cuts[1:])), lambda cut, out: work(jsonl.numbered_lines(source, *cut), out), sinks)


def _stop(pid: int) -> None:
    """Kill worker ``pid`` and wait for it, unless it has been waited for."""
    with contextlib.suppress(ChildProcessError):  # waited for already
        if os.waitpid(pid, os.WNOHANG) == (0, 0):  # still running
            import signal  # loaded only to kill: its enums cost a pass that kills no worker about 1 ms
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run(shards: Sequence, work: Callable[[object, Sequence[IO[str]]], Sequence], sinks: Sequence = ()) -> tuple:
    """``work(shard, handles)`` for each shard, the first here with ``sinks``; the result tuples added by column.

    Each sink is a UTF-8 text handle with a binary layer; a worker's ``handles``
    are its parts, copied to ``sinks`` once it and every shard before it have
    succeeded.  One exit stack owns every part, pipe and worker not yet waited
    for, so on every path each is closed, or killed and waited for.
    """
    if len(shards) == 1:
        return tuple(work(shards[0], sinks))  # one tuple added column by column is itself
    import pickle  # loaded before the fork: a worker that loaded it would start 3 ms later

    with contextlib.ExitStack() as stack:
        for stream in (sys.stdout, sys.stderr):  # a worker must not inherit buffered output that it could write again
            if stream is not None:  # None: its fd was closed when the process started
                stream.flush()
        workers = []
        for shard in shards[1:]:
            parts = [
                stack.enter_context(
                    tempfile.TemporaryFile("w+", encoding="utf-8", newline="", dir=getattr(sink, "part_dir", None))
                )
                for sink in sinks
            ]
            read, write = os.pipe()
            result = stack.enter_context(os.fdopen(read, "rb"))
            with os.fdopen(write, "wb") as pipe:  # closed here once forked, so the result ends when the worker does
                pid = os.fork()
                if not pid:
                    status = 1
                    try:  # the worker leaves only through os._exit: no atexit handler or caller's cleanup runs twice
                        try:
                            value = work(shard, parts)
                            for part in parts:
                                part.flush()
                            outcome = (False, value)
                        except Exception as exc:
                            outcome = (True, exc)
                        pickle.dump(outcome, pipe)
                        pipe.flush()
                        status = 0
                    finally:
                        os._exit(status)
                stack.callback(_stop, pid)
            workers.append((pid, result, parts))
        results = [work(shards[0], sinks)]
        for k, (pid, result, parts) in enumerate(workers, start=1):
            try:
                failed, value = pickle.load(result)  # read before the wait: a result may not fit in the pipe
            except (EOFError, pickle.UnpicklingError):
                failed = None
            _, status = os.waitpid(pid, 0)
            if failed is None:
                code = os.waitstatus_to_exitcode(status)
                raise PipelineError(f"the worker for shard {k} ended (status {code}) with no result")
            if failed:
                raise value
            results.append(value)
            for part, sink in zip(parts, sinks):
                part.seek(0)
                sink.flush()  # the text written to the sink goes first
                shutil.copyfileobj(part.buffer, sink.buffer, _BLOCK)
        return tuple(sum(column[1:], column[0]) for column in zip(*results))
