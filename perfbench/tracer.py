"""Layer tracing for one tropcm process, installed from outside the package.

``Tracer.install`` wraps the public functions of each ``tropcm`` module.
A module-level function is rebound in every loaded ``tropcm.*`` module
that holds it (``from .groebner import reduce_full`` copies the name), and
methods are patched on their class.  Each wrapped call records a span
``(name, start_ns, end_ns, parent, self_ns, outer, tag)``: ``parent`` is
the index of the enclosing span (-1 at the top), ``self_ns`` is the
duration minus the time covered by child spans, ``outer`` is false when a
span of the same name encloses it (recursion), and ``tag`` is a small
label taken from the call (cache hit, basis kind, zero remainder).

``MonomialOrder.key`` runs millions of times per run, so it is counted in
place (calls and time) instead of storing one span per call; its time is
still charged to the enclosing span as child time.  Spans stay in memory
until ``dump`` writes them out at the end of the run.
"""

import importlib
import json
import sys
import time

MODULES = ("cache", "fan", "generic", "groebner", "hilbert", "ideal_io",
           "macaulay", "orders", "polynomials", "quasival", "theorems")

CHECKERS = ("verify_initial_formula", "verify_gr_presentation",
            "verify_epsilon_facts", "verify_quasival_decomposition",
            "verify_iterated_initial", "verify_weight_sum",
            "radicality_spot_check", "well_poised_check", "cm_fan_audit",
            "primeness_check")

BASIS_KINDS = ("grevlex", "weight", "elim", "inhom")


def _hit_tag(args, kwargs, result):
    return result is not None


def _zero_tag(args, kwargs, result):
    return result.is_zero()


def _basis_kind_tag(args, kwargs, result):
    order = args[1] if len(args) > 1 else kwargs["order"]
    homogeneous = args[2] if len(args) > 2 else kwargs.get("homogeneous")
    return "inhom" if homogeneous is False else order.kind


# (module, attribute, span name, tag); "Class.method" attributes are
# patched on the class.
FUNCTIONS = (
    ("polynomials", "parse_polynomial", "polynomials.parse_polynomial", None),
    ("cache", "GBCache.get", "cache.get", _hit_tag),
    ("cache", "GBCache.put", "cache.put", None),
    ("groebner", "buchberger_reduced", "groebner.buchberger_reduced", None),
    ("groebner", "groebner_basis_raw", "groebner.basis_raw", _basis_kind_tag),
    ("groebner", "s_polynomial", "groebner.s_polynomial", None),
    ("groebner", "reduce_full", "groebner.reduce_full", _zero_tag),
    ("groebner", "radical_membership", "groebner.radical_membership", None),
    ("hilbert", "hilbert_numerator", "hilbert.hilbert_numerator", None),
    ("quasival", "Quasivaluation.evaluate", "quasival.evaluate", None),
    ("quasival", "adic_order", "quasival.adic_order", None),
    ("fan", "trop_membership", "fan.trop_membership", None),
    ("generic", "genericity_audit", "generic.genericity_audit", None),
    ("generic", "random_gl", "generic.random_gl", None),
    ("generic", "apply_change", "generic.apply_change", None),
    ("ideal_io", "load_ideal_file", "ideal_io.load_ideal_file", None),
    ("macaulay", "initial_slice_oracle", "macaulay.initial_slice_oracle", None),
) + tuple(("theorems", c, "theorems." + c, None) for c in CHECKERS)

IN_PLACE = (("orders", "MonomialOrder.key", "orders.key"),)


class Tracer:
    def __init__(self):
        self.spans = []
        self.in_place = {}
        self._stack = []      # open spans: [index, child_ns]
        self._active = {}     # span name -> number of open spans
        self._restore = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, tag):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns
        active[name] = 0

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            outer = active[name] == 0
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                finish(index, frame, start, parent, outer, None)
                raise
            finish(index, frame, start, parent, outer,
                   None if tag is None else tag(args, kwargs, result))
            return result

        def finish(index, frame, start, parent, outer, label):
            end = clock()
            active[name] -= 1
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            spans[index] = (name, start, end, parent, end - start - frame[1],
                            outer, label)

        return traced

    def _in_place_wrapper(self, name, fn):
        stat = self.in_place.setdefault(name, [0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        depth = [0]

        def counted(*args):
            if depth[0]:
                # a nested call (a weight order's tiebreak key) is part of
                # the outer call's time
                return fn(*args)
            depth[0] = 1
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                depth[0] = 0
                stat[0] += 1
                stat[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return counted

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced function in the loaded ``tropcm`` package."""
        modules = {m: importlib.import_module("tropcm." + m) for m in MODULES}
        for module, attr, name, tag in FUNCTIONS:
            self._patch(modules[module], attr,
                        lambda fn, n=name, t=tag: self._span_wrapper(n, fn, t))
        for module, attr, name in IN_PLACE:
            self._patch(modules[module], attr,
                        lambda fn, n=name: self._in_place_wrapper(n, fn))

    def _patch(self, module, attr, make):
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            setattr(owner, method, make(original))
            self._restore.append((owner, method, original))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tropcm"
                                   or mod_name.startswith("tropcm.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def trace(self):
        return {"spans": self.spans, "in_place": self.in_place}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.trace(), fh, separators=(",", ":"))


def layer_metrics(trace):
    """Per-layer counts and times from one dumped trace.

    ``.calls`` counts spans, ``.self_s`` sums self time, and ``.s`` sums the
    duration of outermost spans only, so recursion is not counted twice.
    """
    calls, self_ns, outer_ns = {}, {}, {}
    hits = zero_in_engine = 0
    kind_calls = dict.fromkeys(BASIS_KINDS, 0)
    kind_ns = dict.fromkeys(BASIS_KINDS, 0)
    spans = trace["spans"]
    for name, start, end, parent, own, outer, tag in spans:
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own
        if outer:
            outer_ns[name] = outer_ns.get(name, 0) + end - start
        if name == "cache.get" and tag:
            hits += 1
        elif name == "groebner.basis_raw" and tag in kind_calls:
            kind_calls[tag] += 1
            kind_ns[tag] += end - start
        elif (name == "groebner.reduce_full" and tag and parent >= 0
              and spans[parent][0] == "groebner.basis_raw"):
            zero_in_engine += 1

    def n(name):
        return calls.get(name, 0)

    def own_s(name):
        return self_ns.get(name, 0) / 1e9

    def total_s(name):
        return outer_ns.get(name, 0) / 1e9

    key_calls, key_ns = trace["in_place"].get("orders.key", [0, 0])
    spairs = n("groebner.s_polynomial")
    out = {
        "polynomials.parse_polynomial.calls": (n("polynomials.parse_polynomial"), "count"),
        "polynomials.parse_polynomial.self_s": (own_s("polynomials.parse_polynomial"), "s"),
        "cache.get.calls": (n("cache.get"), "count"),
        "cache.get.hits": (hits, "count"),
        "cache.hit_ratio": (hits / n("cache.get") if n("cache.get") else 0.0, "ratio"),
        "cache.put.calls": (n("cache.put"), "count"),
        "cache.put.self_s": (own_s("cache.put"), "s"),
        "orders.key.calls": (key_calls, "count"),
        "orders.key.self_s": (key_ns / 1e9, "s"),
        "groebner.buchberger_reduced.calls": (n("groebner.buchberger_reduced"), "count"),
        "groebner.buchberger_reduced.self_s": (own_s("groebner.buchberger_reduced"), "s"),
    }
    for kind in BASIS_KINDS:
        out[f"groebner.basis_raw.{kind}.calls"] = (kind_calls[kind], "count")
        out[f"groebner.basis_raw.{kind}.s"] = (kind_ns[kind] / 1e9, "s")
    out.update({
        "groebner.spairs": (spairs, "count"),
        "groebner.zero_reductions": (zero_in_engine, "count"),
        "groebner.useful_pair_ratio": (
            (spairs - zero_in_engine) / spairs if spairs else 0.0, "ratio"),
        "groebner.reduce_full.calls": (n("groebner.reduce_full"), "count"),
        "groebner.reduce_full.self_s": (own_s("groebner.reduce_full"), "s"),
        "groebner.radical_membership.s": (total_s("groebner.radical_membership"), "s"),
        "hilbert.hilbert_numerator.calls": (n("hilbert.hilbert_numerator"), "count"),
        "hilbert.hilbert_numerator.self_s": (own_s("hilbert.hilbert_numerator"), "s"),
        "quasival.evaluate.calls": (n("quasival.evaluate"), "count"),
        "quasival.evaluate.s": (total_s("quasival.evaluate"), "s"),
        "quasival.adic_order.calls": (n("quasival.adic_order"), "count"),
        "quasival.adic_order.s": (total_s("quasival.adic_order"), "s"),
    })
    for checker in CHECKERS:
        out[f"theorems.{checker}.s"] = (total_s("theorems." + checker), "s")
    for name in ("fan.trop_membership", "generic.genericity_audit",
                 "ideal_io.load_ideal_file", "macaulay.initial_slice_oracle",
                 "generic.random_gl", "generic.apply_change"):
        out[name + ".s"] = (total_s(name), "s")
    return out
