"""Fork-join over the usable CPUs: ``fork_map(fn, parts)`` returns
``[fn(part) for part in parts]``, with the first part run in the calling
process and each other part in a forked child, which pickles its result
back through a pipe.

Where the process may use one CPU (``taskset -c 0``), or where the
platform lacks ``os.sched_getaffinity`` or ``os.fork`` (Linux has both;
macOS, where a fork is unsafe once system frameworks run, lacks the
first), it is the plain loop.  The output never depends on the split: if
a child fails, exits nonzero or sends a short pickle, or the fork fails,
the parent runs that part itself.

Why the fork is safe.  A forked child holds only the thread that forked,
so a lock that another thread held stays held in the child.  The only
other threads of a ``jonq`` process are NumPy's BLAS pool, and a child
runs pure Python and elementwise NumPy alone, never BLAS.  It closes its
copies of stdin and stdout, and it leaves through ``os._exit`` from a
``finally`` block: it never returns into the caller and runs no
interpreter shutdown, no atexit handler and no flush of the parent's
buffers.  (Python 3.12 and later warn at every fork in a process with
threads, since that is unsafe in general.)  The parent reaps every child
on every path, and kills it first when the parent's own part raises or
is interrupted.
"""

import os
import pickle


def usable_cpus():
    """CPUs this process may run on: 1 where it cannot fork them."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def ranges(total, smallest):
    """Contiguous, near-equal ``(lo, hi)`` ranges covering range(total), one
    per usable CPU but none shorter than ``smallest``: one range below
    2 smallest."""
    count = max(1, min(usable_cpus(), total // smallest))
    return [(total * i // count, total * (i + 1) // count) for i in range(count)]


def fork_map(fn, parts):
    """``[fn(part) for part in parts]``, every part but the first in a
    forked child when more than one CPU is usable."""
    parts = list(parts)
    if len(parts) < 2 or usable_cpus() < 2:
        return [fn(part) for part in parts]
    # [pid, read end] per child, each set to None once reaped or closed; a
    # part whose pipe or fork failed has [None, None] and runs here
    children = []
    try:
        for part in parts[1:]:
            children.append(_spawn(fn, part))
        results = [fn(parts[0])]
        for child, part in zip(children, parts[1:]):
            result = _FAILED
            if child[0] is not None:
                with open(child[1], "rb") as pipe:
                    child[1] = None
                    data = pipe.read()
                _, status = os.waitpid(child[0], 0)
                child[0] = None
                if status == 0:
                    try:
                        result = pickle.loads(data)
                    except (pickle.UnpicklingError, EOFError):
                        pass
            results.append(fn(part) if result is _FAILED else result)
        return results
    finally:
        for pid, read in children:
            if read is not None:
                os.close(read)
            if pid is not None:
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


_FAILED = object()


def _spawn(fn, part):
    """``[pid, read end]`` of a forked child that runs ``fn(part)``, or
    ``[None, None]`` where the pipe or the fork failed."""
    try:
        read, write = os.pipe()
    except OSError:
        return [None, None]
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return [None, None]
    if pid == 0:
        _child(fn, part, read, write)
    os.close(write)
    return [pid, read]


def _child(fn, part, read, write):
    """Run ``fn(part)`` in a forked child and pickle it to ``write``; never
    returns."""
    code = 1
    try:
        os.close(read)
        # stdin and stdout; where the parent had closed them, the pipe may
        # hold fd 1, which stays open
        os.closerange(0, min(2, write))
        with open(write, "wb") as pipe:
            pickle.dump(fn(part), pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)
