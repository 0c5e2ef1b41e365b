"""Control inputs with the verdicts the mathematics requires.

Each input breaks one hypothesis of the paper (negative controls) or meets
them all (positive controls, Cohen-Macaulay domains).  Each is made
generic with seed 42 and run through ``verify --claim all --maxdeg 2``.
``CELLS`` is keyed by instance and claim.  A cell gives the verdicts the
claim's entries must read, by count, and, where tropcm reads otherwise
today, the verdicts it reads.  A cell that is not listed requires, and
reads, ``pass`` on every entry.  A change that mends a cell makes this
test fail until the cell loses its second entry.

Why the listed cells read as they do:

- ``epsilon-facts`` needs x_A, x_j regular for each j outside A.  On the
  three inputs that are not CM some such sequence is not regular, and
  those entries read ``hypothesis-not-met``.  On the two curves of depth
  1 these are the four entries with |A| = 1.
- ``radicality-spot`` must find l in rad(I) outside I on (l^2).
- ``well-poised`` checks that primeness on every sampled stratum holds
  exactly when the ideal is linear.  On a non-linear CM domain it must
  pass, with status ``not-well-poised``: in generic coordinates
  in_w(I) on a top-dimensional cone is the ideal of deg(X) points.  The
  paper assumes a CM domain, so on every negative control the claim's
  hypothesis is not met.  ``primeness_check`` certifies only linear,
  monomial and principal ideals, so the claim reads ``undetermined`` on
  the other inputs (ROADMAP item 7).
"""

import json
from collections import Counter

import pytest

import tropcm.runner
from tropcm.cli import main
from tropcm.theorems import FAIL, HYPOTHESIS, PASS, UNDETERMINED

RAW = {
    # not CM: depth 1 and dimension 2
    "skew-lines": "vars: x1 x2 x3 x4\nx1*x3\nx1*x4\nx2*x3\nx2*x4\n",
    # a domain that is not CM: the curve (s^4 : s^3 t : s t^3 : t^4)
    "quartic-in-p3": "vars: x1 x2 x3 x4\nx1*x4 - x2*x3\nx1^2*x3 - x2^3\n"
                     "x2*x4^2 - x3^3\nx1*x3^2 - x2^2*x4\n",
    # CM but not a domain
    "x1*x2": "vars: x1 x2 x3\nx1*x2\n",
    # CM but not reduced
    "x1^2": "vars: x1 x2 x3\nx1^2\n",
    # not equidimensional: a plane and a line
    "plane-and-line": "vars: x1 x2 x3 x4\nx1*x2\nx1*x3\n",
    # CM domains
    "G(2,4)": "vars: x1 x2 x3 x4 x5 x6\nx1*x6 - x2*x5 + x3*x4\n",
    "rnc4": "vars: x1 x2 x3 x4 x5\nx1*x3 - x2^2\nx1*x4 - x2*x3\n"
            "x1*x5 - x2*x4\nx2*x4 - x3^2\nx2*x5 - x3*x4\nx3*x5 - x4^2\n",
    "segre-p1xp2": "vars: x1 x2 x3 x4 x5 x6\nx1*x5 - x2*x4\nx1*x6 - x3*x4\n"
                   "x2*x6 - x3*x5\n",
    "v2(P2)": "vars: x1 x2 x3 x4 x5 x6\nx1*x4 - x2^2\nx1*x5 - x2*x3\n"
              "x1*x6 - x3^2\nx2*x5 - x3*x4\nx2*x6 - x3*x5\nx4*x6 - x5^2\n",
}

NOT_MET = {HYPOTHESIS: 1}
UNSURE = {UNDETERMINED: 1}

# (instance, claim) -> (verdicts required, verdicts read today when they differ)
CELLS = {
    ("skew-lines", "epsilon-facts"): ({HYPOTHESIS: 4, PASS: 1},),
    ("skew-lines", "well-poised"): (NOT_MET, UNSURE),
    ("quartic-in-p3", "epsilon-facts"): ({HYPOTHESIS: 4, PASS: 1},),
    ("quartic-in-p3", "well-poised"): (NOT_MET, UNSURE),
    ("x1*x2", "well-poised"): (NOT_MET, {PASS: 1}),
    ("x1^2", "radicality-spot"): ({FAIL: 1},),
    ("x1^2", "well-poised"): (NOT_MET, {PASS: 1}),
    ("plane-and-line", "epsilon-facts"): ({HYPOTHESIS: 6, PASS: 4},),
    ("plane-and-line", "well-poised"): (NOT_MET, UNSURE),
    ("rnc4", "well-poised"): ({PASS: 1}, UNSURE),
    ("segre-p1xp2", "well-poised"): ({PASS: 1}, UNSURE),
    ("v2(P2)", "well-poised"): ({PASS: 1}, UNSURE),
}


@pytest.mark.parametrize("name", RAW)
def test_control_inputs_read_the_verdicts_in_the_table(name, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tropcm.runner, "cpus", lambda: 1)
    (tmp_path / "raw.ideal").write_text(RAW[name])
    assert main(["generic", "raw.ideal", "--seed", "42", "--bound", "100",
                 "-o", "inst.ideal"]) == 0
    capsys.readouterr()
    code = main(["verify", "inst.ideal", "--claim", "all", "--maxdeg", "2"])
    claims = json.loads(capsys.readouterr().out)["claims"]
    read = {}
    for c in claims:
        read.setdefault(c["claim"], Counter())[c["verdict"]] += 1
    for claim, verdicts in read.items():
        cell = CELLS.get((name, claim), ({PASS: sum(verdicts.values())},))
        assert verdicts == Counter(cell[-1]), (claim, cell)
    assert {claim for n, claim in CELLS if n == name} <= set(read)
    assert code == (1 if any(FAIL in v for v in read.values()) else 0)
