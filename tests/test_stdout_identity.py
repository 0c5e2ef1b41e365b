"""The stdout of ``generic``, ``prime-check`` and ``fan`` keeps its sha256.

``tests/test_report_identity.py`` pins the ``verify`` reports; these pins
cover the other commands whose output is built from audit and certificate
data, so a refactor of that data must leave their bytes as they are.
"""

import importlib.util
from hashlib import sha256
from pathlib import Path

import pytest

from tropcm.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _instances():
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances", PERFBENCH / "instances.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout_digest(capsys, argv):
    assert main(argv) == 0
    return sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.fixture()
def rnc4_raw(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    instances = _instances()
    (tmp_path / "rnc4.raw.ideal").write_text(
        instances.raw_text(instances.rational_normal_quartic))
    return "rnc4.raw.ideal"


# d = 2 on the rational normal quartic, so --audit-maxA 1 is the default
GENERIC_RNC4 = "0dd5f6feda0ce507b865396d4b61150b8cf3aa3f5e36966103cb6e0561c92853"


@pytest.mark.parametrize("extra", [[], ["--audit-maxA", "1"]],
                         ids=["default", "maxA1"])
def test_generic_rnc4_stdout_keeps_its_digest(rnc4_raw, capsys, extra):
    assert _stdout_digest(capsys, ["generic", rnc4_raw] + extra) == GENERIC_RNC4


def test_fan_codim1_on_generic_rnc4_keeps_its_digest(rnc4_raw, capsys):
    instances = _instances()
    assert main(instances.generic_args(rnc4_raw, "rnc4.ideal", 42)) == 0
    instances.check_generic_summary(capsys.readouterr().out, 42)
    assert _stdout_digest(capsys, ["fan", "rnc4.ideal", "--codim", "1"]) == (
        "9218bc11f795c4a1717376e96af7b6a6e5c3f9a9a168974d12dbf66c9ce51a76")


# one input per certificate kind: (variables, generators, stdout sha256)
PRIME_CHECKS = {
    "linear": ("x1 x2 x3", ["x1 - x2", "x2 + 2*x3"],
               "03215453c5792cc32f3715185c2a931a22fde6eefda8b5b293626f71968caed5"),
    "conic-rank-3": ("x1 x2 x3", ["x1*x3 - x2^2"],
                     "206388014c61e22af931fd6d6b4a614505065024cd9463df54d632be12d73252"),
    "binary-quadric": ("x1 x2", ["x1^2 - x2^2"],
                       "229490746e2c3d20b9268e9128d17c3fc4f57abc503701f76002bff78d990b77"),
    "monomial": ("x1 x2 x3", ["x1*x2", "x3^2"],
                 "90832e0597681be0285f22683500ede7a33caa99795710c6e6a9576f6eb316d7"),
    "monomial-content": ("x1 x2 x3", ["x1*x2 + x1*x3"],
                         "1b8d96f0055d7056544064820afad1cf268829239717112bf47f84ba4b7b0751"),
    "cubic-linear-factor": (
        "x1 x2 x3", ["x1^3 + x1^2*x2 + x1*x2*x3 + x2^2*x3"],
        "9a2eb1e75c328fdbacad8ce61434611f09322fcebdf5de0d403c7ff9478306d9"),
}


@pytest.mark.parametrize("kind", sorted(PRIME_CHECKS))
def test_prime_check_stdout_keeps_its_digest(tmp_path, capsys, kind):
    names, gens, digest = PRIME_CHECKS[kind]
    path = tmp_path / f"{kind}.ideal"
    path.write_text("vars: " + names + "\n" + "\n".join(gens) + "\n")
    assert _stdout_digest(capsys, ["prime-check", str(path)]) == digest
