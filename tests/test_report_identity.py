"""The seed-42 verify-g24 report must keep the benchmark's reference digest.

The instance and the report normalization come from ``perfbench/``, so
this test and the benchmark check the same bytes.  It reads
``perfbench/reference.json`` and never writes it: a speed-up that changes
a report fails here, not only in the benchmark.
"""

import importlib.util
import json
from pathlib import Path

from tropcm.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_g24_report_matches_the_benchmark_reference(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    instances = _perfbench_module("instances")
    checks = _perfbench_module("checks")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    # the report names its instance by the path the benchmark passes
    monkeypatch.chdir(tmp_path)
    work = tmp_path / "perfbench" / ".work"
    work.mkdir(parents=True)
    raw, instance = "perfbench/.work/verify-g24.raw.ideal", "perfbench/.work/verify-g24.ideal"
    (tmp_path / raw).write_text(instances.raw_text(instances.pluecker_g24))
    assert main(instances.generic_args(raw, instance, 42)) == 0
    instances.check_generic_summary(capsys.readouterr().out, 42)
    assert main(["verify", instance, "--claim", "all", "--maxdeg", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    expected = reference["verify-g24"]
    assert checks.verdict_counts(report) == expected["verdicts"]
    assert checks.normalized_digest(report) == expected["digest"]
