"""Independent jobs run by this process and, with a second CPU, one forked
worker.

``run(jobs)`` calls every job once and returns the results in the jobs'
order.  The job indices wait in one pipe, written before the fork, and each
process takes the next one when it is free, so the first jobs start first.
The worker sends its results, or the exception that stopped it, back
pickled on a second pipe and leaves with ``os._exit``; this process reads
that pipe and reaps the worker on every path.  A process that a job's
exception stops empties the index pipe, so the other one stops after its
current job, and ``run`` raises the exception of the earliest job that
raised: the one a single process running the jobs in order meets first.

The worker is forked, not spawned: the process runs no threads, and a
spawned worker would import the package again before its first job.
"""

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
    """Run the jobs whose indices this process reads from ``indices``:
    ({index: result}, (index, exception) or None).  However it stops, it
    leaves the pipe empty, so the other process stops after its job."""
    done = {}
    try:
        while chunk := os.read(indices, _WIDTH):
            i = int.from_bytes(chunk, "big")
            try:
                done[i] = jobs[i]()
            except Exception as exc:
                return done, (i, exc)
        return done, None
    finally:
        while os.read(indices, 4096):
            pass


def _fork(jobs, indices):
    """Start the worker: its pid and the pipe end its results come from,
    or None when no process can be started (this one then runs alone)."""
    # only this path loads pickle: alone, a process is 0.2 MB smaller
    # at its peak without it
    import pickle

    results, send = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(results)
        os.close(send)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(results)
            sent = pickle.dumps(_take(jobs, indices))
            with os.fdopen(send, "wb") as fh:
                fh.write(sent)
            status = 0
        finally:
            os._exit(status)
    os.close(send)
    return pid, results


def run(jobs):
    """``[job() for job in jobs]``, shared with one forked worker when
    ``os.fork`` exists and ``cpus()`` is at least two."""
    indices, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(_WIDTH, "big")
                            for i in range(len(jobs))))
    os.close(feed)
    worker = None
    try:
        if hasattr(os, "fork") and cpus() >= 2:
            worker = _fork(jobs, indices)
        done, error = _take(jobs, indices)
    finally:
        os.close(indices)
        if worker is not None:
            pid, results = worker
            with os.fdopen(results, "rb") as fh:
                sent = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if worker is not None:
        if not sent:
            raise RuntimeError(f"the worker process ended with status "
                               f"{status} and sent no results")
        import pickle   # loaded by _fork

        theirs, their_error = pickle.loads(sent)
        done.update(theirs)
        # each index is read once, so the pairs differ in their index
        error = min(filter(None, (error, their_error)), default=None)
    if error is not None:
        raise error[1]
    return [done[i] for i in range(len(jobs))]
