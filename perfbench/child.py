"""One timed ``tropcm`` command in a fresh interpreter.

    python3 perfbench/child.py RESULT SPAWN_NS INSTANCE TRACE -- ARGS...

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it spawned
this process.  The child imports ``tropcm`` from the checkout's ``src/``,
reads INSTANCE, then calls ``tropcm.cli.main(ARGS)``; the report goes to
stdout as the CLI prints it.  RESULT receives one JSON object:

- ``setup_s``: spawn to the end of set-up (interpreter start,
  ``import tropcm``, reading the instance);
- ``wall_s``: the call into ``main`` to its return;
- ``peak_rss_mb``: the maximum resident set of this process (``VmHWM``);
- ``rc``: what ``main`` returned.

ARGS ``--setup-only`` stops before ``main``.  When TRACE is not ``-`` the
layer tracer is installed before ``main`` and its spans are written there.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def peak_rss_mb():
    """This process's own peak resident set, in MB.

    Not ``ru_maxrss``: Linux carries the spawning process's peak resident
    set across ``execve`` into it, so it would report the benchmark's own
    process whenever that one is the larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    result_path, spawn_ns, instance, trace_path = argv[:4]
    args = argv[5:]
    sys.path.insert(0, SRC)
    import tropcm.cli
    from tropcm.ideal_io import load_ideal_file

    if not os.path.abspath(tropcm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"tropcm imported from {tropcm.__file__}, not {SRC}")
    load_ideal_file(instance)
    ready = time.monotonic_ns()
    record = {"setup_s": (ready - int(spawn_ns)) / 1e9}
    if args == ["--setup-only"]:
        rc = 0
    else:
        tracer = None
        if trace_path != "-":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        start = time.monotonic_ns()
        rc = tropcm.cli.main(args)
        end = time.monotonic_ns()
        sys.stdout.flush()
        record["wall_s"] = (end - start) / 1e9
        if tracer is not None:
            tracer.dump(trace_path)
    record.update(rc=rc, peak_rss_mb=peak_rss_mb())
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
