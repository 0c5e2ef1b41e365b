"""The `verify` claim table: names, aliases, required flags and checkers.

Each claim and alias runs on the seed-7 generic twisted cubic and must
report its claim under the report name with the exit code of a passing
run.  Missing flags, flags among --A, -w, -u and -i that the claim does
not read, and unknown names print one exact ``error:`` line and exit 2.
The benchmark's tracer (``perfbench/tracer.py``, loaded read-only)
rebinds module attributes, so every claim must reach the rebound
``theorems`` function.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from tropcm.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TWISTED_CUBIC = """\
vars: x1 x2 x3 x4
x1*x3 - x2^2
x1*x4 - x2*x3
x2*x4 - x3^2
"""

A_FLAGS = ["--A", "1"]

# CLI name -> (flags, claim name in the report, theorems checker)
CLAIMS = {
    "initial-formula": (A_FLAGS, "initial-formula", "verify_initial_formula"),
    "cor-initial": (A_FLAGS, "initial-formula", "verify_initial_formula"),
    "gr-presentation": (A_FLAGS, "gr-presentation", "verify_gr_presentation"),
    "quasival-decomposition": (A_FLAGS, "quasival-decomposition",
                               "verify_quasival_decomposition"),
    "quasival-decomp": (A_FLAGS, "quasival-decomposition",
                        "verify_quasival_decomposition"),
    "iterated-initial": (A_FLAGS + ["-i", "1"], "iterated-initial",
                         "verify_iterated_initial"),
    "weight-sum": (["-u", "1,0,0,0", "-w", "2,0,0,0"], "weight-sum",
                   "verify_weight_sum"),
    "epsilon-facts": (A_FLAGS, "epsilon-facts", "verify_epsilon_facts"),
    "radical-spot": ([], "radicality-spot", "radicality_spot_check"),
    "well-poised": ([], "well-poised", "well_poised_check"),
    "cm-fan": ([], "cm-fan-coincidence", "cm_fan_audit"),
}


@pytest.fixture(scope="module")
def twisted_cubic_generic(tmp_path_factory):
    work = tmp_path_factory.mktemp("twisted-cubic")
    raw, out = work / "raw.ideal", work / "generic.ideal"
    raw.write_text(TWISTED_CUBIC)
    assert main(["generic", str(raw), "--seed", "7", "--bound", "100",
                 "-o", str(out)]) == 0
    return str(out)


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_verify_claim_names(name, twisted_cubic_generic, capsys):
    capsys.readouterr()
    flags, claim, _ = CLAIMS[name]
    code = main(["verify", twisted_cubic_generic, "--claim", name] + flags)
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [c["claim"] for c in report["claims"]] == [claim]


@pytest.mark.parametrize("argv,message", [
    (["--claim", "initial-formula"], "--A is required for this claim"),
    (["--claim", "cor-initial", "-w", "2,0,0,0"],
     "--A is required for this claim"),
    (["--claim", "iterated-initial", "--A", "1"],
     "--A and -i are required for this claim"),
    (["--claim", "weight-sum", "-w", "2,0,0,0"],
     "-u and -w are required for this claim"),
    (["--claim", "bogus"], "unknown claim 'bogus'"),
    # -i names a variable by its 1-based index, and it must lie in A
    (["--claim", "iterated-initial", "--A", "2", "-i", "1"],
     "index must belong to A"),
    # a flag the claim does not read is refused, not ignored
    (["--claim", "all", "--maxdeg", "1", "--A", "1", "-w", "5,0,0,0",
      "-u", "1,1,1,1", "-i", "1"],
     "--A and -w and -u and -i are not read by this claim"),
    (["--claim", "all", "-w", "5,0,0,0"], "-w is not read by this claim"),
    (["--claim", "radical-spot", "--A", "1", "-w", "5,0,0,0"],
     "--A and -w are not read by this claim"),
    (["--claim", "well-poised", "-i", "1"], "-i is not read by this claim"),
    (["--claim", "cm-fan", "-u", "1,0,0,0"], "-u is not read by this claim"),
    (["--claim", "gr-presentation", "--A", "1", "-w", "1,0,0,0"],
     "-w is not read by this claim"),
    (["--claim", "epsilon-facts", "--A", "1", "-i", "1"],
     "-i is not read by this claim"),
    (["--claim", "iterated-initial", "--A", "1", "-i", "1", "-u", "1,0,0,0"],
     "-u is not read by this claim"),
    (["--claim", "weight-sum", "-u", "1,0,0,0", "-w", "2,0,0,0", "--A", "1"],
     "--A is not read by this claim"),
    (["--claim", "quasival-decomp", "--A", "1", "-u", "1,0,0,0"],
     "-u is not read by this claim"),
    # refused before a missing flag is named
    (["--claim", "initial-formula", "-i", "1"], "-i is not read by this claim"),
])
def test_verify_claim_errors(argv, message, twisted_cubic_generic, capsys):
    capsys.readouterr()
    code = main(["verify", twisted_cubic_generic] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_epsilon_facts_with_A_of_size_d_is_unmet(twisted_cubic_generic, capsys):
    # the twisted cubic has d = 2, so |A| = 2 exceeds d - 1
    capsys.readouterr()
    code = main(["verify", twisted_cubic_generic, "--claim", "epsilon-facts",
                 "--A", "1,2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    (claim,) = report["claims"]
    assert claim["verdict"] == "hypothesis-not-met"
    assert claim["evidence"]["reason"] == "|A| exceeds d - 1"


# report params -> the verify flags that set them; the rest follow from the ideal
PARAM_FLAGS = {"A": "--A", "i": "-i", "u": "-u", "w": "-w", "maxdeg": "--maxdeg",
               "samples": "--samples", "samples_per_cone": "--samples-per-cone",
               "seed": "--seed"}
DERIVED_PARAMS = {"generators", "d", "powmax"}
REPORT_TO_CLI = {"cm-fan-coincidence": "cm-fan", "radicality-spot": "radical-spot"}


def test_claim_all_entries_match_single_claims(twisted_cubic_generic, capsys):
    capsys.readouterr()
    assert main(["verify", twisted_cubic_generic, "--claim", "all",
                 "--maxdeg", "2", "--samples", "5"]) == 0
    entries = json.loads(capsys.readouterr().out)["claims"]
    checked = 0
    for entry in entries:
        if entry["claim"] == "genericity-audit":
            continue
        params = entry["params"]
        assert set(params) <= set(PARAM_FLAGS) | DERIVED_PARAMS
        flags = []
        for key in sorted(set(params) & set(PARAM_FLAGS)):
            value = params[key]
            if key == "A":
                value = ",".join(str(i) for i in value)
            flags += [PARAM_FLAGS[key], str(value)]
        name = REPORT_TO_CLI.get(entry["claim"], entry["claim"])
        assert main(["verify", twisted_cubic_generic, "--claim", name] + flags) == 0
        assert json.loads(capsys.readouterr().out)["claims"] == [entry]
        checked += 1
    assert checked == len(entries) - 1 > 20


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_tracer_sees_each_checker(name, tmp_path, capsys):
    path = tmp_path / "conic.ideal"
    path.write_text("vars: x1 x2 x3\nx1*x3 - x2^2\n")
    flags, _, checker = CLAIMS[name]
    # the conic has three variables
    flags = [f.replace(",0,0,0", ",0,0") for f in flags]
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        # the raw conic is not generic, but an unmet hypothesis is no fail
        assert main(["verify", str(path), "--claim", name] + flags) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert "theorems." + checker in {span[0] for span in tracer.spans}
