"""Command-line surface: ideal ingestion, runs, and JSON report emission.

Reports are the output contract; everything printed is JSON (the
``report`` subcommand renders one for reading).  Identical configuration
and inputs produce byte-identical reports: run ids are content hashes and
no timestamps are recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .cache import set_cache_directory, sha256
from .fan import (ConeCA, enumerate_generic_fan, sample_cones, sample_interior,
                  sweep)
from .fields import FieldError, _ascii
from .generic import apply_change, genericity_audit, random_gl
from .groebner import (buchberger_reduced, contains_monomial, holds_monomial,
                       initial_ideal, krull_dimension)
from .ideal_io import (IdealFileError, gb_to_dict, load_ideal_file,
                       parse_subset, parse_weight, save_ideal_file, write_json)
from .orders import GREVLEX, LEX, MonomialOrder
from .polynomials import ParseError, parse_polynomial
from .quasival import Quasivaluation, scale, standard_basis_slice
from .theorems import (FAIL, _fmt_w, _report, cm_fan_audit, primeness_check,
                       radicality_spot_check, verify_epsilon_facts,
                       verify_gr_presentation, verify_initial_formula,
                       verify_iterated_initial, verify_quasival_decomposition,
                       verify_weight_sum, well_poised_check)


def _check_counts(args):
    """No count below zero, and no audit or per-cone sample count below
    one (an audit of no subset, or a sweep of no sample, would pass)."""
    for flag, least, words in (("--maxdeg", 0, "non-negative"),
                               ("--samples", 0, "non-negative"),
                               ("--samples-per-cone", 1, "at least 1"),
                               ("--audit-maxA", 1, "at least 1"),
                               ("--audit-subsets", 1, "at least 1")):
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and value < least:
            raise ValueError(f"{flag} must be {words}")


def _print_json(obj, stream):
    write_json(obj, stream.write, indent=2)
    stream.write("\n")


def _emit(obj, args):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _print_json(obj, fh)
    else:
        _print_json(obj, sys.stdout)


def _load(args):
    if args.cache_dir:
        set_cache_directory(args.cache_dir)
    return load_ideal_file(args.ideal)


def _report_payload(args, ideal, source, reports):
    claims = sorted(reports, key=lambda c: (c["claim"], json.dumps(
        c["params"], sort_keys=True, default=str)))
    field = ideal.ring.field.name
    config = {"seed": args.seed, "bound": args.bound, "maxdeg": args.maxdeg,
              "samples": args.samples, "samples_per_cone": args.samples_per_cone,
              "field": field}
    body = {"seed": args.seed, "field": field, "config": config,
            "instance": {"source": source,
                         "vars": list(ideal.ring.names),
                         "generators": [str(g) for g in ideal.generators]},
            "claims": claims}
    # the run_id leaves out where the run writes its report and its bases;
    # it is cache.digest of the body's one-line text
    h = sha256()
    write_json(body, lambda text: h.update(text.encode("ascii")))
    h.update(b"\x00")
    body["run_id"] = h.hexdigest()[:12]
    config.update(cache_dir=args.cache_dir or "", output=args.output or "")
    return body


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_gb(args):
    ideal = _load(args)
    if args.w:
        order = MonomialOrder.weighted(parse_weight(args.w, ideal.ring.nvars))
    else:
        order = LEX if args.order == "lex" else GREVLEX
    gb = buchberger_reduced(ideal, order)
    _emit(gb_to_dict(gb), args)
    return 0


def cmd_initial(args):
    ideal = _load(args)
    w = parse_weight(args.w, ideal.ring.nvars)
    inw = initial_ideal(w, ideal)
    gb = buchberger_reduced(inw, GREVLEX)
    _emit({"w": _fmt_w(w), **gb_to_dict(gb)}, args)
    return 0


def cmd_trop_member(args):
    ideal = _load(args)
    w = parse_weight(args.w, ideal.ring.nvars)
    inw = initial_ideal(w, ideal)
    witness = contains_monomial(inw)
    member = witness is None
    _emit({"w": _fmt_w(w), "member": member,
           "witness": str(ideal.ring.monomial(witness)) if witness else None},
          args)
    return 0


def cmd_generic(args):
    ideal = _load(args)
    _check_counts(args)
    n = ideal.ring.nvars
    seed = args.seed
    reseeds = 0
    while True:
        matrix = random_gl(n, seed, args.bound, ideal.ring.field)
        candidate = apply_change(matrix, ideal)
        audit = genericity_audit(candidate, maxA=args.audit_maxA,
                                 max_subsets=args.audit_subsets, seed=seed)
        if audit["pass"] or reseeds >= 5:
            break
        reseeds += 1
        seed += 1
    if args.output:
        save_ideal_file(candidate, args.output)
    summary = {"seed": seed, "bound": args.bound, "reseeds": reseeds,
               "pass": audit["pass"], "checks": audit["checks"],
               "ideal": [str(g) for g in candidate.generators],
               "written": args.output or None}
    _print_json(summary, sys.stdout)
    return 0 if audit["pass"] else 1


def cmd_fan(args):
    ideal = _load(args)
    n = ideal.ring.nvars
    d = krull_dimension(ideal)
    cones = []
    for _, cone, w, inw in sweep(ideal, d, (args.codim,), 1, args.seed):
        verdict, cert = primeness_check(inw)
        cones.append({
            "A": list(cone.label()),
            "sample_w": _fmt_w(w),
            "in_w_gb": buchberger_reduced(inw, GREVLEX).strings(),
            "monomial_free": not holds_monomial(inw),
            "prime_verdict": verdict,
        })
    _emit({"n": n, "d": d, "codim": args.codim, "cones": cones}, args)
    return 0


def cmd_quasival(args):
    ideal = _load(args)
    _check_counts(args)
    ring, order = ideal.ring, GREVLEX
    if args.deg:
        v = Quasivaluation.degree(ideal)
    elif args.adic is not None:
        v = Quasivaluation.adic(ideal, parse_subset(args.adic, ring.nvars))
    else:
        v = Quasivaluation.weight(ideal, parse_weight(args.w, ring.nvars))
        order = MonomialOrder.weighted(v.w)
    if args.scale is not None:
        v = scale(_ascii(args.scale, "scaling factor"), v)
    if args.elements:
        elements = [parse_polynomial(s, ring)
                    for s in args.elements.split(";") if s.strip()]
    else:
        elements = [ring.monomial(m)
                    for deg in range(args.maxdeg + 1)
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
           "certificate": cert}, args)
    return 0


def _full_suite(ideal, args):
    """Every claim on one instance, with seeded sampling kept desk-sized:
    each runs through ``CLAIMS`` with the flags of its job, and the jobs
    are shared with a worker process when a second CPU is there."""
    from .runner import run

    n = ideal.ring.nvars
    d = krull_dimension(ideal)
    seed = args.seed

    def audit_report():
        audit = genericity_audit(ideal, max_subsets=20, seed=seed)
        return _report(
            "genericity-audit",
            {"generators": [str(g) for g in ideal.generators], "d": d},
            "pass" if audit["pass"] else "fail", audit)

    maximal = sample_cones(enumerate_generic_fan(n, d, 0), 10,
                           ("maxA", seed, n, d - 1))
    codim1 = sample_cones(enumerate_generic_fan(n, d, 1), 10,
                          ("codim1", seed, n, d - 2)) if d >= 2 else []
    # the claims over the whole fan or ideal take longest, so they start first
    jobs = [(claim, {}) for claim in ("well-poised", "cm-fan", "radical-spot")]
    jobs += [(claim, {"A": cone.A}) for cone in maximal + codim1
             for claim in ("initial-formula", "gr-presentation",
                           "epsilon-facts")]
    jobs += [("quasival-decomposition", {"A": cone.A}) for cone in maximal[:3]]
    jobs += [("iterated-initial", {"A": cone.A, "index": min(cone.A) + 1})
             for cone in maximal[:3] if cone.A]
    jobs += [("weight-sum", {"u": sample_interior(cone, seed + 2 * k),
                             "w": sample_interior(cone, seed + 2 * k + 1)})
             for k, cone in enumerate(maximal[:3])]
    return run([partial(CLAIMS[claim][2], ideal,
                        argparse.Namespace(**{**vars(args), **flags}))
                for claim, flags in jobs] + [audit_report])


def _weight_or_sample(ideal, args):
    if args.w is not None:
        return args.w
    return sample_interior(ConeCA(args.A, ideal.ring.nvars), args.seed)


# claim name -> (flags it requires, flags it may take, checker (ideal, args)
# -> report); any other of --A, -w, -u and -i is refused.  A checker names
# its theorems function when it runs, so a rebinding of the module attribute
# (a tracer, a test) reaches it.
CLAIMS = {
    "initial-formula": (("A",), ("w",), lambda ideal, args: verify_initial_formula(
        ideal, args.A, _weight_or_sample(ideal, args))),
    "gr-presentation": (("A",), (), lambda ideal, args: verify_gr_presentation(
        ideal, args.A)),
    "quasival-decomposition": (
        ("A",), ("w",), lambda ideal, args: verify_quasival_decomposition(
            ideal, args.A, _weight_or_sample(ideal, args),
            maxdeg=args.maxdeg, samples=args.samples, seed=args.seed)),
    "iterated-initial": (("A", "index"), (), lambda ideal, args:
                         verify_iterated_initial(ideal, args.A, args.index - 1)),
    "weight-sum": (("u", "w"), (), lambda ideal, args: verify_weight_sum(
        ideal, args.u, args.w, maxdeg=args.maxdeg)),
    "epsilon-facts": (("A",), (), lambda ideal, args: verify_epsilon_facts(
        ideal, args.A)),
    "radical-spot": ((), (), lambda ideal, args: radicality_spot_check(
        ideal, samples=args.samples, seed=args.seed)),
    "well-poised": ((), (), lambda ideal, args: well_poised_check(
        ideal, samples_per_cone=args.samples_per_cone, seed=args.seed)),
    "cm-fan": ((), (), lambda ideal, args: cm_fan_audit(
        ideal, samples_per_cone=args.samples_per_cone, seed=args.seed)),
}
CLAIMS["cor-initial"] = CLAIMS["initial-formula"]
CLAIMS["quasival-decomp"] = CLAIMS["quasival-decomposition"]

_FLAG_NAMES = {"A": "--A", "w": "-w", "u": "-u", "index": "-i"}


def _flags(names, what):
    """``--A is <what>``, or ``--A and -i are <what>``."""
    flags = " and ".join(_FLAG_NAMES[f] for f in names)
    return f"{flags} {'is' if len(names) == 1 else 'are'} {what}"


def cmd_verify(args):
    ideal = _load(args)
    _check_counts(args)
    n = ideal.ring.nvars
    if args.A is not None:
        args.A = parse_subset(args.A, n)
    args.w = parse_weight(args.w, n) if args.w else None
    args.u = parse_weight(args.u, n) if args.u else None
    if args.claim == "all":
        # the full suite sets every claim's flags itself
        required = optional = ()
    elif args.claim in CLAIMS:
        required, optional, checker = CLAIMS[args.claim]
    else:
        raise ValueError(f"unknown claim {args.claim!r}")
    refused = [f for f in _FLAG_NAMES
               if getattr(args, f) is not None and f not in required + optional]
    if refused:
        raise ValueError(_flags(refused, "not read by this claim"))
    if any(getattr(args, f) is None for f in required):
        raise ValueError(_flags(required, "required for this claim"))
    reports = (_full_suite(ideal, args) if args.claim == "all"
               else [checker(ideal, args)])
    _emit(_report_payload(args, ideal, args.ideal, reports), args)
    return 1 if any(r["verdict"] == FAIL for r in reports) else 0


def cmd_report(args):
    with open(args.report, "r", encoding="utf-8") as fh:
        try:
            # a decoding error is a ValueError too
            lines, counts = _report_lines(json.load(fh))
        except (AttributeError, KeyError, TypeError, ValueError):
            raise ValueError(f"{args.report}: not a tropcm report") from None
    print("\n".join(lines))
    return 1 if counts.get(FAIL) else 0


def _report_lines(body):
    """The lines ``report`` prints for a report body, and its verdict counts."""
    instance = body["instance"]
    lines = [f"run {body['run_id']}  seed={body['seed']}  field={body['field']}",
             f"instance {instance['source']}"]
    lines += [f"  gen {g}" for g in instance["generators"]]
    counts = {}
    for c in body["claims"]:
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

def _int(text):
    """An integer flag: int() of ASCII text, as files and weights are read."""
    try:
        return int(_ascii(text, "integer"))
    except FieldError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_int.__name__ = "int"   # argparse's "invalid int value: 'x'" names the type


# integer option groups: flag and default
_COUNTS = {"seed": (("--seed", 42),), "bound": (("--bound", 100),),
           "maxdeg": (("--maxdeg", 4),),
           "samples": (("--samples", 50), ("--samples-per-cone", 3))}


class _OneCommandParser(argparse.ArgumentParser):
    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser(command=None):
    """The parser of every command; with ``command``, only its subparser is
    built, and a usage error raises ``ArgumentError`` instead of exiting."""
    parser = (_OneCommandParser if command else argparse.ArgumentParser)(
        prog="tropcm",
        description="Exact workbench for generic tropical initial ideals")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, text, *groups, **defaults):
        """The subparser of ``name`` with the ideal, its output options and
        the integer option ``groups``; None when another command is built."""
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=text)
        p.add_argument("ideal")
        p.add_argument("--cache-dir", dest="cache_dir", default=None,
                       help="directory for the persisted basis cache")
        p.add_argument("-o", "--output", default=None,
                       help="write JSON here instead of stdout")
        for group in groups:
            for flag, default in _COUNTS[group]:
                p.add_argument(flag, type=_int, default=default)
        p.set_defaults(func=func, **defaults)
        return p

    # each command takes the option groups it reads and refuses the others;
    # verify and audit-cm take them all, as their report config records them
    if p := add("gb", cmd_gb, "reduced Groebner basis"):
        p.add_argument("--order", choices=["grevlex", "lex"], default="grevlex")
        p.add_argument("-w", default=None, help="weight vector refining the order")
    if p := add("initial", cmd_initial, "initial ideal in_w(I)"):
        p.add_argument("-w", required=True)
    if p := add("trop-member", cmd_trop_member, "does w lie in Trop(I)?"):
        p.add_argument("-w", required=True)
    if p := add("generic", cmd_generic, "seeded change of coordinates plus "
                "audit; -o names the transformed ideal file", "seed", "bound"):
        p.add_argument("--audit-maxA", dest="audit_maxA", type=_int,
                       default=None)
        p.add_argument("--audit-subsets", dest="audit_subsets", type=_int,
                       default=20)
    if p := add("fan", cmd_fan, "per-cone initial data on one fan stratum",
                "seed"):
        p.add_argument("--codim", type=_int, default=0)
    if p := add("quasival", cmd_quasival, "value table of a quasivaluation",
                "maxdeg"):
        kind = p.add_mutually_exclusive_group(required=True)
        kind.add_argument("-w", default=None)
        kind.add_argument("--adic", default=None, help="subset for the adic order")
        kind.add_argument("--deg", action="store_true",
                          help="degree quasivaluation")
        p.add_argument("--scale", default=None,
                       help="non-negative rational factor")
        p.add_argument("--elements", default=None,
                       help="semicolon-separated polynomials to evaluate")
    if p := add("verify", cmd_verify, "run one claim (or all) and emit a report",
                *_COUNTS):
        p.add_argument("--claim", required=True)
        p.add_argument("--A", default=None, help="comma-separated 1-based subset")
        p.add_argument("-w", default=None)
        p.add_argument("-u", default=None)
        p.add_argument("-i", "--index", type=_int, default=None,
                       help="1-based index of a variable in A (iterated-initial)")
    # the same run as ``verify --claim cm-fan``
    add("audit-cm", cmd_verify, "initial-ideal constancy per maximal cone",
        *_COUNTS, claim="cm-fan", A=None, w=None, u=None, index=None)
    if p := add("prime-check", cmd_prime_check,
                "primeness certificate of I (or in_w(I))"):
        p.add_argument("-w", default=None)
    if command in (None, "report"):
        p = sub.add_parser("report", help="render a JSON report for reading")
        p.add_argument("report")
        p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # only the named command's subparser is built; help, a missing or unknown
    # command and any usage error go to the full parser, whose usage lists all
    args = None
    if argv and not argv[0].startswith("-") and not {"-h", "--help"} & set(argv):
        try:
            args = build_parser(argv[0]).parse_args(argv)
        except argparse.ArgumentError:
            pass
    args = args or build_parser().parse_args(argv)
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
