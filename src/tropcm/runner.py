"""Independent jobs run by this process and, with a second CPU, one forked
worker.

``run(jobs)`` returns the jobs' results in their order.  The job indices
wait in one pipe, written before the fork, and each process takes the next
one when it is free, so the first jobs start first.  A process stops at
its first job that raises and empties the index pipe, so the other one
stops after its current job.  The worker sends back what it finished,
``{index: result}`` through ``marshal`` (loaded by the import system
already, where ``pickle`` would add to this process's peak), and leaves
with ``os._exit``; this process reads that and reaps the worker on every
path.  Then it runs, in order, each job without a result.  Every lower job
has finished, so the first of them is the earliest job that raised, and
it raises here with its own error, as in one process running the jobs in
order.  A worker that dies, or whose results ``marshal`` refuses, so costs
time, not the run.  The worker is forked, not spawned: the process runs no
threads, and a spawned worker would import the package again.
"""

import marshal
import os

# bytes per job index.  Every index is written before the fork, with no
# reader yet, so they must fit in the pipe's buffer: 4096 bytes at least,
# by POSIX, against the full suite's 146
_WIDTH = 2


def cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity mask on this platform
        return os.cpu_count() or 1


def _take(jobs, indices):
    """Run the jobs whose indices this process reads from ``indices``, up
    to the first that raises: {index: result}.  However it stops, it
    leaves the pipe empty, so the other process stops after its job."""
    done = {}
    try:
        while chunk := os.read(indices, _WIDTH):
            i = int.from_bytes(chunk, "big")
            done[i] = jobs[i]()
    except Exception:
        pass                        # the job raises again in ``run``
    finally:
        while os.read(indices, 4096):
            pass
    return done


def _shared(jobs):
    """{index: result} of the jobs this process and one forked worker
    finished; this process takes them all when no worker can start."""
    indices, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(_WIDTH, "big")
                            for i in range(len(jobs))))
    os.close(feed)
    results, send = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        try:
            os.close(results)
            sent = marshal.dumps(_take(jobs, indices))
            with os.fdopen(send, "wb") as fh:
                fh.write(sent)
        finally:
            os._exit(0)
    os.close(send)
    try:
        done = _take(jobs, indices)
    finally:
        os.close(indices)
        with os.fdopen(results, "rb") as fh:
            sent = fh.read()
        if pid:
            os.waitpid(pid, 0)
    try:
        done.update(marshal.loads(sent))
    except (EOFError, ValueError):  # the worker died or sent nothing
        pass
    return done


def run(jobs):
    """``[job() for job in jobs]``, shared with one forked worker when
    ``os.fork`` exists and ``cpus()`` is at least two."""
    done = _shared(jobs) if hasattr(os, "fork") and cpus() >= 2 else {}
    return [done[i] if i in done else jobs[i]() for i in range(len(jobs))]
