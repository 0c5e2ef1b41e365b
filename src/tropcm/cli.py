"""Command-line surface: ideal ingestion, runs, and JSON report emission.

Reports are the output contract; everything printed is JSON (the
``report`` subcommand renders one for reading).  Identical configuration
and inputs produce byte-identical reports: run ids are content hashes and
no timestamps are recorded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import combinations

from .cache import digest, set_cache_directory
from .fan import ConeCA, enumerate_generic_fan, sample_interior
from .generic import apply_change, genericity_audit, random_gl
from .groebner import (buchberger_reduced, contains_monomial, initial_ideal,
                       krull_dimension)
from .ideal_io import (IdealFileError, gb_to_dict, load_ideal_file,
                       parse_subset, parse_weight, save_ideal_file)
from .orders import GREVLEX, LEX, MonomialOrder
from .polynomials import ParseError, parse_polynomial
from .quasival import Quasivaluation, scale, standard_basis_slice
from .theorems import (FAIL, VerificationReport, cm_fan_audit,
                       primeness_check, radicality_spot_check,
                       verify_epsilon_facts, verify_gr_presentation,
                       verify_initial_formula, verify_iterated_initial,
                       verify_quasival_decomposition, verify_weight_sum,
                       well_poised_check)


class RunConfig:
    """The run's options, from parsed arguments, with no count below zero;
    the ideal file, not a flag, names the field."""

    __slots__ = ("seed", "bound", "maxdeg", "samples", "samples_per_cone",
                 "cache_dir", "output")

    def __init__(self, args):
        for flag in ("--maxdeg", "--samples", "--audit-maxA", "--audit-subsets"):
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None and value < 0:
                raise ValueError(f"{flag} must be non-negative")
        self.seed, self.bound, self.maxdeg = args.seed, args.bound, args.maxdeg
        self.samples, self.samples_per_cone = args.samples, args.samples_per_cone
        self.cache_dir, self.output = args.cache_dir or "", args.output or ""


def _emit(obj, args):
    text = json.dumps(obj, indent=2, sort_keys=True, default=str)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(args):
    if args.cache_dir:
        set_cache_directory(args.cache_dir)
    return load_ideal_file(args.ideal)


def _order_from_args(args, n):
    if getattr(args, "w", None):
        return MonomialOrder.weighted(parse_weight(args.w, n))
    if getattr(args, "order", "grevlex") == "lex":
        return LEX
    return GREVLEX


def _report_payload(cfg, ideal, source, reports):
    claims = sorted((r.to_dict() for r in reports),
                    key=lambda c: (c["claim"],
                                   json.dumps(c["params"], sort_keys=True,
                                              default=str)))
    field = ideal.ring.field.name
    config = {"seed": cfg.seed, "bound": cfg.bound, "maxdeg": cfg.maxdeg,
              "samples": cfg.samples, "samples_per_cone": cfg.samples_per_cone,
              "field": field}
    body = {"seed": cfg.seed, "field": field, "config": config,
            "instance": {"source": source,
                         "vars": list(ideal.ring.names),
                         "generators": [str(g) for g in ideal.generators]},
            "claims": claims}
    # the run_id leaves out where the run writes its report and its bases
    body["run_id"] = digest(json.dumps(body, sort_keys=True, default=str))[:12]
    config.update(cache_dir=cfg.cache_dir, output=cfg.output)
    return body


def _exit_status(reports):
    return 1 if any(r.failed for r in reports) else 0


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_gb(args):
    ideal = _load(args)
    order = _order_from_args(args, ideal.ring.nvars)
    gb = buchberger_reduced(ideal, order)
    _emit(gb_to_dict(gb), args)
    return 0


def cmd_initial(args):
    ideal = _load(args)
    w = parse_weight(args.w, ideal.ring.nvars)
    inw = initial_ideal(w, ideal)
    gb = buchberger_reduced(inw, GREVLEX)
    _emit({"w": args.w, **gb_to_dict(gb)}, args)
    return 0


def cmd_trop_member(args):
    ideal = _load(args)
    w = parse_weight(args.w, ideal.ring.nvars)
    inw = initial_ideal(w, ideal)
    witness = contains_monomial(inw)
    member = witness is None
    _emit({"w": args.w, "member": member,
           "witness": str(ideal.ring.monomial(witness)) if witness else None},
          args)
    return 0


def cmd_generic(args):
    ideal = _load(args)
    cfg = RunConfig(args)
    n = ideal.ring.nvars
    seed = cfg.seed
    reseeds = 0
    transformed = None
    audit = None
    while True:
        g = random_gl(n, seed, cfg.bound, ideal.ring.field)
        candidate = apply_change(g, ideal)
        d = krull_dimension(candidate)
        max_a = args.audit_maxA if args.audit_maxA is not None else d - 1
        audit = genericity_audit(candidate, maxA=max_a,
                                 max_subsets=args.audit_subsets, seed=seed)
        if audit.passed or reseeds >= 5:
            transformed = candidate
            break
        reseeds += 1
        seed += 1
    if args.output:
        save_ideal_file(transformed, args.output)
    summary = {"seed": seed, "bound": cfg.bound, "reseeds": reseeds,
               "pass": audit.passed, "checks": audit.to_dict()["checks"],
               "ideal": [str(g) for g in transformed.generators],
               "written": args.output or None}
    print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    return 0 if audit.passed else 1


def cmd_fan(args):
    ideal = _load(args)
    n = ideal.ring.nvars
    d = krull_dimension(ideal)
    cones = []
    for cone in enumerate_generic_fan(n, d, args.codim):
        w = sample_interior(cone, args.seed)
        inw = initial_ideal(w, ideal)
        witness = contains_monomial(inw)
        verdict, cert = primeness_check(inw)
        cones.append({
            "A": list(cone.label()),
            "sample_w": ",".join(str(x) for x in w),
            "in_w_gb": buchberger_reduced(inw, GREVLEX).strings(),
            "monomial_free": witness is None,
            "prime_verdict": verdict,
        })
    _emit({"n": n, "d": d, "codim": args.codim, "cones": cones}, args)
    return 0


def cmd_quasival(args):
    ideal = _load(args)
    cfg = RunConfig(args)
    ring = ideal.ring
    if args.w:
        v = Quasivaluation.weight(ideal, parse_weight(args.w, ring.nvars))
        order = MonomialOrder.weighted(v.w)
    elif args.adic is not None:
        v = Quasivaluation.adic(ideal, parse_subset(args.adic, ring.nvars))
        order = GREVLEX
    elif args.deg:
        v = Quasivaluation.degree(ideal)
        order = GREVLEX
    else:
        raise ValueError("choose one of -w, --adic, --deg")
    if args.scale is not None:
        v = scale(args.scale, v)
    if args.elements:
        elements = [parse_polynomial(s, ring)
                    for s in args.elements.split(";") if s.strip()]
    else:
        elements = [ring.monomial(m)
                    for deg in range(cfg.maxdeg + 1)
                    for m in standard_basis_slice(ideal, order, deg)]
    entries = [{"element": str(f), "value": str(v.evaluate(f))}
               for f in elements]
    _emit({"quasivaluation": v.descriptor(), "entries": entries}, args)
    return 0


def cmd_prime_check(args):
    ideal = _load(args)
    if args.w:
        ideal = initial_ideal(parse_weight(args.w, ideal.ring.nvars), ideal)
    verdict, cert = primeness_check(ideal)
    _emit({"ideal": [str(g) for g in ideal.generators],
           "verdict": verdict,
           "certificate": cert.to_dict() if cert else None}, args)
    return 0


def _sampled_subsets(n, size, limit, seed, tag):
    subsets = list(combinations(range(n), size))
    if limit is not None and len(subsets) > limit:
        rng = random.Random(repr((tag, seed, n, size)))
        subsets = sorted(rng.sample(subsets, limit))
    return [frozenset(a) for a in subsets]


def _full_suite(ideal, cfg):
    """Every claim on one instance, with seeded sampling kept desk-sized."""
    n = ideal.ring.nvars
    d = krull_dimension(ideal)
    reports = []
    audit = genericity_audit(ideal, maxA=d - 1, max_subsets=20, seed=cfg.seed)
    reports.append(VerificationReport(
        "genericity-audit",
        {"generators": [str(g) for g in ideal.generators], "d": d},
        "pass" if audit.passed else "fail", audit.to_dict()))
    maximal = _sampled_subsets(n, d - 1, 10, cfg.seed, "maxA")
    codim1 = _sampled_subsets(n, d - 2, 10, cfg.seed, "codim1") if d >= 2 else []
    for A in maximal + codim1:
        w = sample_interior(ConeCA(A, n), cfg.seed)
        reports.append(verify_initial_formula(ideal, A, w))
        reports.append(verify_gr_presentation(ideal, A))
        reports.append(verify_epsilon_facts(ideal, A))
    for A in maximal[:3]:
        w = sample_interior(ConeCA(A, n), cfg.seed)
        reports.append(verify_quasival_decomposition(
            ideal, A, w, maxdeg=cfg.maxdeg, samples=cfg.samples, seed=cfg.seed))
    for A in maximal[:3]:
        if A:
            i = sorted(A)[0]
            reports.append(verify_iterated_initial(ideal, A, i))
    for k, A in enumerate(maximal[:3]):
        cone = ConeCA(A, n)
        u = sample_interior(cone, cfg.seed + 2 * k)
        w = sample_interior(cone, cfg.seed + 2 * k + 1)
        reports.append(verify_weight_sum(ideal, u, w, maxdeg=cfg.maxdeg))
    reports.append(radicality_spot_check(ideal, samples=cfg.samples,
                                         seed=cfg.seed))
    reports.append(well_poised_check(ideal,
                                     samples_per_cone=cfg.samples_per_cone,
                                     seed=cfg.seed))
    reports.append(cm_fan_audit(ideal, samples_per_cone=cfg.samples_per_cone,
                                seed=cfg.seed))
    return reports


def _weight_or_sample(ideal, args, cfg):
    if args.w is not None:
        return args.w
    return sample_interior(ConeCA(args.A, ideal.ring.nvars), cfg.seed)


# claim name -> (parsed flags it requires, checker (ideal, args, cfg) -> report).
# A checker names its theorems function when it runs, so a rebinding of the
# module attribute (a tracer, a test) reaches it.
CLAIMS = {
    "initial-formula": (("A",), lambda ideal, args, cfg: verify_initial_formula(
        ideal, args.A, _weight_or_sample(ideal, args, cfg))),
    "gr-presentation": (("A",), lambda ideal, args, cfg: verify_gr_presentation(
        ideal, args.A)),
    "quasival-decomposition": (
        ("A",), lambda ideal, args, cfg: verify_quasival_decomposition(
            ideal, args.A, _weight_or_sample(ideal, args, cfg),
            maxdeg=cfg.maxdeg, samples=cfg.samples, seed=cfg.seed)),
    "iterated-initial": (("A", "index"), lambda ideal, args, cfg:
                         verify_iterated_initial(ideal, args.A, args.index - 1)),
    "weight-sum": (("u", "w"), lambda ideal, args, cfg: verify_weight_sum(
        ideal, args.u, args.w, maxdeg=cfg.maxdeg)),
    "epsilon-facts": (("A",), lambda ideal, args, cfg: verify_epsilon_facts(
        ideal, args.A)),
    "radical-spot": ((), lambda ideal, args, cfg: radicality_spot_check(
        ideal, samples=cfg.samples, seed=cfg.seed)),
    "well-poised": ((), lambda ideal, args, cfg: well_poised_check(
        ideal, samples_per_cone=cfg.samples_per_cone, seed=cfg.seed)),
    "cm-fan": ((), lambda ideal, args, cfg: cm_fan_audit(
        ideal, samples_per_cone=cfg.samples_per_cone, seed=cfg.seed)),
}
CLAIMS["cor-initial"] = CLAIMS["initial-formula"]
CLAIMS["quasival-decomp"] = CLAIMS["quasival-decomposition"]

_FLAG_NAMES = {"A": "--A", "index": "-i", "u": "-u", "w": "-w"}


def cmd_verify(args):
    ideal = _load(args)
    cfg = RunConfig(args)
    n = ideal.ring.nvars
    parsed = argparse.Namespace(
        A=parse_subset(args.A, n) if args.A is not None else None,
        w=parse_weight(args.w, n) if args.w else None,
        u=parse_weight(args.u, n) if args.u else None,
        index=args.index)
    if args.claim == "all":
        reports = _full_suite(ideal, cfg)
    elif args.claim in CLAIMS:
        required, checker = CLAIMS[args.claim]
        if any(getattr(parsed, f) is None for f in required):
            flags = " and ".join(_FLAG_NAMES[f] for f in required)
            verb = "is" if len(required) == 1 else "are"
            raise ValueError(f"{flags} {verb} required for this claim")
        reports = [checker(ideal, parsed, cfg)]
    else:
        raise ValueError(f"unknown claim {args.claim!r}")
    _emit(_report_payload(cfg, ideal, args.ideal, reports), args)
    return _exit_status(reports)


def cmd_report(args):
    with open(args.report, "r", encoding="utf-8") as fh:
        body = json.load(fh)
    try:
        lines, counts = _report_lines(body)
    except (AttributeError, KeyError, TypeError):
        raise ValueError(f"{args.report}: not a tropcm report") from None
    print("\n".join(lines))
    return 1 if counts.get(FAIL) else 0


def _report_lines(body):
    """The lines ``report`` prints for a report body, and its verdict counts."""
    lines = [f"run {body.get('run_id', '?')}  seed={body.get('seed')}  "
             f"field={body.get('field')}"]
    source = body.get("instance", {}).get("source", "?")
    lines.append(f"instance {source}")
    for g in body.get("instance", {}).get("generators", []):
        lines.append(f"  gen {g}")
    counts = {}
    for c in body.get("claims", []):
        counts[c["verdict"]] = counts.get(c["verdict"], 0) + 1
        inst = {k: v for k, v in c["params"].items() if k != "generators"}
        detail = ", ".join(f"{k}={v}" for k, v in sorted(inst.items()))
        lines.append(f"[{c['verdict']:>18}] {c['claim']}  {detail}")
        if c["verdict"] == FAIL and "witness" in c.get("evidence", {}):
            lines.append(f"{'':>20}  witness: {c['evidence']['witness']}")
    summary = "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    lines.append(f"totals: {summary or 'no claims'}")
    return lines, counts


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="tropcm",
        description="Exact workbench for generic tropical initial ideals")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--bound", type=int, default=100)
    common.add_argument("--maxdeg", type=int, default=4)
    common.add_argument("--samples", type=int, default=50)
    common.add_argument("--samples-per-cone", dest="samples_per_cone",
                        type=int, default=3)
    common.add_argument("--cache-dir", dest="cache_dir", default=None,
                        help="directory for the persisted basis cache")
    common.add_argument("-o", "--output", default=None,
                        help="write JSON here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gb", parents=[common], help="reduced Groebner basis")
    p.add_argument("ideal")
    p.add_argument("--order", choices=["grevlex", "lex"], default="grevlex")
    p.add_argument("-w", default=None, help="weight vector refining the order")
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("initial", parents=[common], help="initial ideal in_w(I)")
    p.add_argument("ideal")
    p.add_argument("-w", required=True)
    p.set_defaults(func=cmd_initial)

    p = sub.add_parser("trop-member", parents=[common],
                       help="does w lie in Trop(I)?")
    p.add_argument("ideal")
    p.add_argument("-w", required=True)
    p.set_defaults(func=cmd_trop_member)

    p = sub.add_parser("generic", parents=[common],
                       help="seeded change of coordinates plus audit; "
                            "-o names the transformed ideal file")
    p.add_argument("ideal")
    p.add_argument("--audit-maxA", dest="audit_maxA", type=int, default=None)
    p.add_argument("--audit-subsets", dest="audit_subsets", type=int,
                   default=20)
    p.set_defaults(func=cmd_generic)

    p = sub.add_parser("fan", parents=[common],
                       help="per-cone initial data on one fan stratum")
    p.add_argument("ideal")
    p.add_argument("--codim", type=int, default=0)
    p.set_defaults(func=cmd_fan)

    p = sub.add_parser("quasival", parents=[common],
                       help="value table of a quasivaluation")
    p.add_argument("ideal")
    p.add_argument("-w", default=None)
    p.add_argument("--adic", default=None, help="subset for the adic order")
    p.add_argument("--deg", action="store_true", help="degree quasivaluation")
    p.add_argument("--scale", default=None, help="non-negative rational factor")
    p.add_argument("--elements", default=None,
                   help="semicolon-separated polynomials to evaluate")
    p.set_defaults(func=cmd_quasival)

    p = sub.add_parser("verify", parents=[common],
                       help="run one claim (or all) and emit a report")
    p.add_argument("ideal")
    p.add_argument("--claim", required=True)
    p.add_argument("--A", default=None, help="comma-separated 1-based subset")
    p.add_argument("-w", default=None)
    p.add_argument("-u", default=None)
    p.add_argument("-i", "--index", type=int, default=None,
                   help="1-based index inside A (iterated initials)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("audit-cm", parents=[common],
                       help="initial-ideal constancy per maximal cone")
    p.add_argument("ideal")
    # the same run as ``verify --claim cm-fan``
    p.set_defaults(func=cmd_verify, claim="cm-fan", A=None, w=None, u=None,
                   index=None)

    p = sub.add_parser("prime-check", parents=[common],
                       help="primeness certificate of I (or in_w(I))")
    p.add_argument("ideal")
    p.add_argument("-w", default=None)
    p.set_defaults(func=cmd_prime_check)

    p = sub.add_parser("report", help="render a JSON report for reading")
    p.add_argument("report")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IdealFileError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # an internal limit, e.g. random_gl's resampling cap: not a verdict
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
