"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

They check that instance generation is a pure function of the seed, and
that the correctness gate counts a tampered report as a failure.  About
15 s: they run the real CLI.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, run.SRC)


def _instance_bytes(name, seed):
    w = run.Workload(name, seed, run._load_reference())
    w.prepare()
    with open(run._path(w.instance), "rb") as fh:
        return fh.read()


def test_same_seed_gives_identical_instances():
    for name in ("verify-g24", "fan-rnc4"):
        first = _instance_bytes(name, 7)
        assert _instance_bytes(name, 7) == first
        assert _instance_bytes(name, 8) != first


def test_tampered_report_is_counted_as_failed():
    w = run.Workload("fan-rnc4", run.REFERENCE_SEED, run._load_reference())
    w.prepare()
    w.measure_once()
    assert (w.attempted, w.failed) == (1, 0)
    rc, stdout, record = run.spawn(w.args, w.instance)
    report = json.loads(stdout)
    report["claims"][0]["verdict"] = "fail"
    tampered = json.dumps(report, indent=2, sort_keys=True)

    real_spawn = run.spawn
    run.spawn = lambda *args, **kwargs: (rc, tampered, record)
    try:
        assert w.invoke() is None
    finally:
        run.spawn = real_spawn
    assert (w.attempted, w.failed) == (2, 1)


def test_oracle_rejects_a_wrong_cone_basis():
    w = run.Workload("fan-rnc4", run.REFERENCE_SEED, run._load_reference())
    w.prepare()
    _, stdout, _ = run.spawn(w.args, w.instance)
    report = json.loads(stdout)
    assert checks.oracle_problems(report, run._path(w.instance)) == []
    cone = report["claims"][0]["evidence"]["cones"][0]
    cone["basis"] = cone["basis"][1:]
    assert checks.oracle_problems(report, run._path(w.instance)) != []


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print("ok", test.__name__)
