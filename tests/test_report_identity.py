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


# the seed-42 generic rational normal quartic: a non-principal instance,
# so both sides of every claim run on an ideal with several generators
RNC4_DIGEST = "092fdbb6818ca58b7b34479923360c87ccbb669945d7ac446f987b50ce63185b"
RNC4_VERDICTS = {
    "cm-fan-coincidence:pass": 1, "epsilon-facts:pass": 6,
    "genericity-audit:pass": 1, "gr-presentation:pass": 6,
    "initial-formula:pass": 6, "iterated-initial:pass": 3,
    "quasival-decomposition:pass": 3, "radicality-spot:pass": 1,
    "weight-sum:pass": 3, "well-poised:undetermined": 1,
}


def test_verify_rnc4_report_keeps_its_digest(tmp_path, monkeypatch, capsys):
    instances = _perfbench_module("instances")
    checks = _perfbench_module("checks")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rnc4.raw.ideal").write_text(
        instances.raw_text(instances.rational_normal_quartic))
    assert main(instances.generic_args("rnc4.raw.ideal", "rnc4.ideal", 42)) == 0
    instances.check_generic_summary(capsys.readouterr().out, 42)
    assert main(["verify", "rnc4.ideal", "--claim", "all", "--maxdeg", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert checks.verdict_counts(report) == RNC4_VERDICTS
    assert checks.normalized_digest(report) == RNC4_DIGEST


# the seed-42 generic G(2,4) over F_32003: every claim on the field path,
# where row echelon keeps its field loop
G24_FP_DIGEST = "63e5966fc20e657d6ab0401144ffaecf4b8155e077ba0b86bfa525caad8f3054"
G24_FP_VERDICTS = {
    "cm-fan-coincidence:pass": 1, "epsilon-facts:pass": 20,
    "genericity-audit:pass": 1, "gr-presentation:pass": 20,
    "initial-formula:pass": 20, "iterated-initial:pass": 3,
    "quasival-decomposition:pass": 3, "radicality-spot:pass": 1,
    "weight-sum:pass": 3, "well-poised:pass": 1,
}


def test_verify_g24_over_a_prime_field_keeps_its_digest(tmp_path, monkeypatch,
                                                        capsys):
    instances = _perfbench_module("instances")
    checks = _perfbench_module("checks")
    monkeypatch.chdir(tmp_path)
    raw = instances.raw_text(instances.pluecker_g24)
    (tmp_path / "g24fp.raw.ideal").write_text(
        raw.replace("field: Q\n", "field: Fp:32003\n"))
    assert main(instances.generic_args("g24fp.raw.ideal", "g24fp.ideal", 42)) == 0
    instances.check_generic_summary(capsys.readouterr().out, 42)
    assert main(["verify", "g24fp.ideal", "--claim", "all", "--maxdeg", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["field"] == "Fp:32003"
    assert checks.verdict_counts(report) == G24_FP_VERDICTS
    assert checks.normalized_digest(report) == G24_FP_DIGEST
