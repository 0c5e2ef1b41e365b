"""Correctness gate for one benchmark invocation.

An invocation passes when the CLI exits 0, its verdicts equal the
expected set, the normalized report digest equals the stored seed-42
reference (other seeds check verdicts only) and, for the fan sweep, every
reported cone basis agrees with the Macaulay-matrix oracle.
"""

import hashlib
import json
from collections import Counter

# fields that name where a run wrote things rather than what it found
VOLATILE = ("run_id",)
VOLATILE_CONFIG = ("output", "cache_dir")
ORACLE_DEGREES = (2, 3)     # degrees in which cone bases meet the oracle


def normalized_digest(report):
    body = {k: v for k, v in report.items() if k not in VOLATILE}
    body["config"] = {k: v for k, v in report["config"].items()
                      if k not in VOLATILE_CONFIG}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict_counts(report):
    counts = Counter(f"{c['claim']}:{c['verdict']}" for c in report["claims"])
    return dict(sorted(counts.items()))


def report_problems(rc, stdout, expected, reference_digest=None):
    """(problems, report): problems is empty when the invocation passed."""
    if rc != 0:
        return [f"exit code {rc}"], None
    try:
        report = json.loads(stdout)
        got = verdict_counts(report)
        digest = normalized_digest(report)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"], None
    problems = []
    if got != expected:
        problems.append(f"verdicts {got} != expected {expected}")
    if reference_digest is not None and digest != reference_digest:
        problems.append(f"digest {digest[:12]} != reference "
                        f"{reference_digest[:12]}")
    return problems, report


def oracle_problems(report, instance_path):
    """Cross-check each cone basis of a cm-fan report against the oracle.

    The oracle echelonizes Macaulay matrices of the instance against the
    sampled weight and never runs Buchberger, so a changed engine cannot
    pass by regenerating the reference digest.  Needs ``tropcm`` on the
    import path.
    """
    from tropcm.fan import ConeCA, sample_interior
    from tropcm.ideal_io import load_ideal_file
    from tropcm.macaulay import graded_slice, initial_slice_oracle
    from tropcm.polynomials import parse_polynomial

    ideal = load_ideal_file(instance_path)
    ring = ideal.ring
    generators = list(ideal.generators)
    seed = report["config"]["seed"]
    (claim,) = [c for c in report["claims"]
                if c["claim"] == "cm-fan-coincidence"]
    problems = []
    for cone in claim["evidence"]["cones"]:
        A = frozenset(i - 1 for i in cone["A"])
        w = sample_interior(ConeCA(A, ring.nvars), seed)
        basis = [parse_polynomial(s, ring) for s in cone["basis"]]
        for degree in ORACLE_DEGREES:
            if (graded_slice(basis, degree)[0]
                    != initial_slice_oracle(generators, w, degree)[0]):
                problems.append(f"cone {cone['A']} disagrees with the "
                                f"oracle in degree {degree}")
    return problems
