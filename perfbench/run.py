"""tropcm benchmark: end-to-end timings of the real CLI, and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere inside a checkout; ``tropcm`` is imported from its
``src/``.  Each workload generates its instance from ``--seed`` with
``tropcm generic`` (set-up stops if the audit fails or reseeds), then runs
its command repeatedly, one fresh interpreter at a time, for about
``--seconds`` seconds.  Every invocation is checked (see ``checks.py``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end medians ``wall_s``, ``setup_s`` and ``peak_rss_mb``; with
``--trace 1`` one further invocation runs under the layer tracer and the
metrics are its per-layer numbers plus the tracing overhead.  ``all``
interleaves the workloads and also prints a table with each
workload's fail rate.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import checks
import instances
from tracer import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = "perfbench/.work"            # relative to ROOT, the child's cwd
CACHE_DIR = WORK + "/gbcache"
REFERENCE_SEED = 42
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170

WORKLOADS = {
    "verify-g24": {
        "presentation": instances.pluecker_g24,
        "args": ["verify", "{instance}", "--claim", "all", "--maxdeg", "2"],
    },
    "fan-rnc4": {
        "presentation": instances.rational_normal_quartic,
        "args": ["audit-cm", "{instance}", "--cache-dir", CACHE_DIR],
        "oracle": True,
    },
}


def _path(relative):
    return os.path.join(ROOT, relative)


def _load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn(args, instance, trace_path="-"):
    """Run one CLI command in a fresh interpreter; (rc, stdout, record)."""
    result_path = _path(f"{WORK}/result-{os.getpid()}.json")
    if os.path.exists(result_path):     # left by an interrupted run
        os.remove(result_path)
    env = {k: v for k, v in os.environ.items() if k != "TROPCM_CACHE"}
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, CHILD, result_path, str(spawn_ns), instance,
         trace_path, "--", *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    record = None
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            record = json.load(fh)
        os.remove(result_path)
    return proc.returncode, proc.stdout, record


class Workload:
    """One workload's instance, its invocations and their checks."""

    def __init__(self, name, seed, reference):
        self.name = name
        self.seed = seed
        self.spec = WORKLOADS[name]
        self.raw = f"{WORK}/{name}.raw.ideal"
        self.instance = f"{WORK}/{name}.ideal"
        self.expected = reference[name]["verdicts"]
        self.reference_digest = (reference[name]["digest"]
                                 if seed == REFERENCE_SEED else None)
        self.args = [a.format(instance=self.instance)
                     for a in self.spec["args"]]
        self.records, self.probes = [], []   # child timing records
        self.attempted = self.failed = 0
        self.digests = set()
        self._oracle_ok = {}

    def prepare(self, trace_path="-"):
        """Write the raw presentation and make it seeded-generic."""
        os.makedirs(_path(WORK), exist_ok=True)
        with open(_path(self.raw), "w", encoding="utf-8") as fh:
            fh.write(instances.raw_text(self.spec["presentation"]))
        rc, stdout, _ = spawn(
            instances.generic_args(self.raw, self.instance, self.seed),
            self.raw, trace_path)
        if rc != 0:
            raise SystemExit(f"{self.name}: tropcm generic exited {rc} "
                             f"for seed {self.seed}")
        instances.check_generic_summary(stdout, self.seed)

    def timed_spawn(self, args, trace_path="-"):
        """``spawn`` bracketed by the calibration job (see calibrate.py)."""
        before = calibrate.measure()
        rc, stdout, record = spawn(args, self.instance, trace_path)
        after = calibrate.measure()
        if record is not None:
            record["calibration_s"] = [before, after]
        return rc, stdout, record

    def probe_setup(self):
        rc, _, record = self.timed_spawn(["--setup-only"])
        if rc != 0 or record is None:
            raise SystemExit(f"{self.name}: set-up probe failed")
        self.probes.append(record)

    def invoke(self, trace_path="-"):
        """One checked invocation; returns (record, report) or None."""
        if self.spec.get("oracle"):
            shutil.rmtree(_path(CACHE_DIR), ignore_errors=True)
        rc, stdout, record = self.timed_spawn(self.args, trace_path)
        problems, report = checks.report_problems(
            rc, stdout, self.expected, self.reference_digest)
        if report is not None and self.spec.get("oracle"):
            digest = checks.normalized_digest(report)
            if digest not in self._oracle_ok:
                self._oracle_ok[digest] = checks.oracle_problems(
                    report, _path(self.instance))
            problems += self._oracle_ok[digest]
        self.attempted += 1
        if problems or record is None:
            self.failed += 1
            for p in problems or ["no timing record"]:
                print(f"{self.name} seed {self.seed}: {p}", file=sys.stderr)
            return None
        return record, report

    def measure_once(self):
        outcome = self.invoke()
        if outcome is not None:
            record, report = outcome
            self.records.append(record)
            self.digests.add(checks.normalized_digest(report))

    def raw_wall_s(self):
        return statistics.median(r["wall_s"] for r in self.records)

    def end_to_end(self):
        """Medians over the run; times scaled to the reference host speed.

        The calibration job runs just before the spawn and just after the
        exit: set-up is scaled by the first, wall time by their mean.
        """
        setups = [calibrate.normalize(r["setup_s"], r["calibration_s"][0])
                  for r in self.records + self.probes]
        walls = [calibrate.normalize(r["wall_s"],
                                     statistics.mean(r["calibration_s"]))
                 for r in self.records]
        return {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                              for r in self.records), "MB"),
        }

    def raw_summary(self):
        """Unscaled medians, printed beside the result for reference."""
        timed = self.records + self.probes
        setup = statistics.median(r["setup_s"] for r in timed)
        calibration = statistics.median(c for r in timed
                                        for c in r["calibration_s"])
        return (f"{self.name}: {len(self.records)} invocations, raw wall_s "
                f"{self.raw_wall_s():.4f}, raw setup_s {setup:.4f}, "
                f"calibration_s {calibration:.4f} "
                f"(reference {calibrate.REFERENCE_S})")


def measure(workloads, seconds):
    """Interleave invocations until each workload has run about ``seconds``.

    Each workload runs at least once and starts another invocation only
    while its elapsed time plus its median invocation fits in ``seconds``.
    """
    elapsed = dict.fromkeys(workloads, 0.0)
    active = list(workloads)
    while active:
        for w in list(active):
            start = time.monotonic()
            w.measure_once()
            elapsed[w] += time.monotonic() - start
            if not w.records or elapsed[w] + w.raw_wall_s() > seconds:
                active.remove(w)


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def _read_trace(relative):
    with open(_path(relative), encoding="utf-8") as fh:
        return json.load(fh)


def traced_layers(w):
    """One traced invocation of ``w``; per-layer metrics and overhead."""
    gen_trace = f"{WORK}/{w.name}.generic.trace.json"
    run_trace = f"{WORK}/{w.name}.trace.json"
    # the instance is regenerated under the tracer; it must not change
    with open(_path(w.instance), "rb") as fh:
        before = fh.read()
    w.prepare(gen_trace)
    with open(_path(w.instance), "rb") as fh:
        if fh.read() != before:
            raise SystemExit(f"{w.name}: traced generation changed the instance")
    outcome = w.invoke(run_trace)
    if outcome is None:
        return None
    record, report = outcome
    if checks.normalized_digest(report) not in w.digests:
        w.failed += 1
        print(f"{w.name}: traced report differs from the untraced one",
              file=sys.stderr)
        return None
    metrics = layer_metrics(_read_trace(run_trace))
    generation = layer_metrics(_read_trace(gen_trace))
    for name in ("generic.random_gl.s", "generic.apply_change.s"):
        metrics[name] = generation[name]
    oracle_s = 0.0
    if w.spec.get("oracle"):
        tracer = Tracer()
        tracer.install()
        try:
            checks.oracle_problems(report, _path(w.instance))
        finally:
            tracer.uninstall()
        oracle_s = layer_metrics(tracer.trace())[
            "macaulay.initial_slice_oracle.s"][0]
    metrics["macaulay.initial_slice_oracle.s"] = (oracle_s, "s")
    metrics["src.lines"] = (src_lines(), "lines")
    traced = calibrate.normalize(record["wall_s"],
                                 statistics.mean(record["calibration_s"]))
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - w.end_to_end()["wall_s"][0], "s")
    return metrics


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})


def measured(names, seed, seconds, reference):
    """Set up the named workloads, then measure them interleaved."""
    ws = [Workload(name, seed, reference) for name in names]
    for w in ws:
        w.prepare()
        for _ in range(SETUP_PROBES):
            w.probe_setup()
    measure(ws, seconds)
    for w in ws:
        if not w.records:
            raise SystemExit(f"{w.name}: no invocation succeeded")
        print(w.raw_summary())
    return ws


def run_one(name, seed, seconds, trace, reference):
    (w,) = measured([name], seed, seconds, reference)
    metrics = traced_layers(w) if trace else w.end_to_end()
    if metrics is None:
        raise SystemExit(f"{name}: the traced invocation failed")
    print(result_line(w.failed == 0, w.attempted, w.failed, metrics))


def run_all(seed, seconds, reference):
    ws = measured(WORKLOADS, seed, seconds, reference)
    print(f"{'workload':<12} {'metric':<12} {'value':>10}  unit   invocations")
    summary = {}
    for w in ws:
        metrics = w.end_to_end()
        metrics["fail_rate"] = (w.failed / w.attempted, "ratio")
        for metric, (value, unit) in metrics.items():
            print(f"{w.name:<12} {metric:<12} {value:>10.4f}  {unit:<6} "
                  f"{w.attempted}")
        summary[w.name] = {k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()}
    attempted = sum(w.attempted for w in ws)
    failed = sum(w.failed for w in ws)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "workloads": summary}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tropcm", "cli.py")):
        print(f"error: no tropcm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)     # the fan oracle cross-check runs here
    reference = _load_reference()
    if args.workload == "all":
        run_all(args.seed, args.seconds, reference)
    else:
        run_one(args.workload, args.seed, args.seconds, args.trace, reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
