"""Reading and writing .ideal files, weight vectors, and subset arguments,
and writing JSON text in pieces.

File grammar::

    # comment
    vars: x1 x2 x3
    field: Q            # optional, Q or Fp:<p>
    x1*x3 - x2^2        # one generator per line

Errors carry the offending line number; non-homogeneous generators are
rejected at load time.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .fields import QQ, FieldError, _ascii, field_from_name
from .groebner import Ideal
from .polynomials import ParseError, Ring, parse_polynomial


class IdealFileError(ValueError):
    pass


def _lines(text):
    """The lines of ``text``, ended by \\r\\n, \\r or \\n alone: a form feed,
    a vertical tab, NEL or U+2028, which ``str.splitlines`` also breaks at,
    is a character of its line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_ideal_text(text, source="<string>"):
    lines = _lines(text)
    names = field = None
    gens = []
    gen_lines = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars:"):
            if names is not None:
                raise IdealFileError(f"{source}:{lineno}: duplicate vars line")
            names = tuple(line[5:].split())
            if not names:
                raise IdealFileError(f"{source}:{lineno}: empty vars line")
            if len(set(names)) < len(names):
                raise IdealFileError(f"{source}:{lineno}: duplicate variable names")
            # a name must read back as one name token of the polynomial grammar
            for v in names:
                if not ((v[0] == "_" or v[0].isalpha())
                        and v.replace("_", "a").isalnum()):
                    raise IdealFileError(
                        f"{source}:{lineno}: bad variable name {v!r}")
            continue
        if line.startswith("field:"):
            if field is not None:
                raise IdealFileError(f"{source}:{lineno}: duplicate field line")
            try:
                field = field_from_name(line[6:])
            except FieldError as exc:
                raise IdealFileError(f"{source}:{lineno}: {exc}") from exc
            continue
        if names is None:
            raise IdealFileError(f"{source}:{lineno}: generators before vars line")
        gens.append(line)
        gen_lines.append(lineno)
    if names is None:
        raise IdealFileError(f"{source}: missing vars line")
    ring = Ring(names, field or QQ)
    polys = []
    for line, lineno in zip(gens, gen_lines):
        try:
            p = parse_polynomial(line, ring)
        except ParseError as exc:
            raise IdealFileError(f"{source}:{lineno}: {exc}") from exc
        if not p.is_homogeneous():
            raise IdealFileError(
                f"{source}:{lineno}: non-homogeneous generator {line!r}")
        polys.append(p)
    return Ideal(ring, polys)


def load_ideal_file(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line of the bad byte, counted as parse_ideal_text counts lines
        lineno = len(_lines(data[:exc.start].decode("utf-8")))
        raise IdealFileError(f"{path}:{lineno}: not UTF-8 text") from None
    return parse_ideal_text(text, source=str(path))


def ideal_to_text(ideal):
    lines = ["vars: " + " ".join(ideal.ring.names),
             "field: " + ideal.ring.field.name]
    lines.extend(str(g) for g in ideal.generators)
    return "\n".join(lines) + "\n"


def save_ideal_file(ideal, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ideal_to_text(ideal))


def parse_weight(text, n):
    """Comma-separated rationals, e.g. ``1/2,0,3``."""
    parts = [p.strip() for p in _ascii(text, "weight vector").split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} weight entries, got {len(parts)}")
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad weight vector {text!r}: {exc}") from exc


def parse_subset(text, n):
    """Comma-separated 1-based indices to a 0-based frozenset; '' is empty."""
    text = _ascii(text, "subset").strip()
    if not text:
        return frozenset()
    try:
        indices = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad subset {text!r}: {exc}") from exc
    out = set()
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} outside 1..{n}")
        out.add(i - 1)
    return frozenset(out)


def gb_to_dict(gb):
    return {"ring": gb.ring.descriptor(),
            "order": gb.order.descriptor(),
            "basis": gb.strings()}


# The JSON writer lives here, not in cli.py: without .pyc files, compiling
# cli.py is the peak of ``import tropcm.cli``, so its size is resident memory.

# pieces of JSON text gathered before each call of the sink.  On the seed-42
# verify-g24 report, 4096 held 0.31 MB at the writer's peak and 256 holds
# 0.03 MB; below 1024 the process's peak no longer moves (README, Reports)
_PIECES = 256
_scalar_text = json.JSONEncoder().encode


def _key_text(key):
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(_scalar_text(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def write_json(obj, sink, indent=None):
    """Pass ``sink`` the text of ``json.dumps(obj, indent=indent,
    sort_keys=True, default=str)``, a few hundred pieces per call, so no
    whole report text is ever held."""
    step = None if indent is None else " " * indent
    comma = ", " if step is None else ","
    pieces = []
    put = pieces.append

    def value(o, nl):
        # nl: a newline and this level's indent, or None on one line
        if isinstance(o, str):
            put(encode_basestring_ascii(o))
        elif type(o) is int:
            put(int.__repr__(o))
        elif o is None or isinstance(o, (int, float)):
            put(_scalar_text(o))
        elif isinstance(o, (list, tuple, dict)):
            is_dict = isinstance(o, dict)
            brackets = "{}" if is_dict else "[]"
            if not o:
                put(brackets)
                return
            inner = None if nl is None else nl + step
            put(brackets[0] if inner is None else brackets[0] + inner)
            between = comma if inner is None else comma + inner
            first = True
            for item in sorted(o.items()) if is_dict else o:
                if first:
                    first = False
                else:
                    put(between)
                if is_dict:
                    put(_key_text(item[0]))
                    put(": ")
                    item = item[1]
                if isinstance(item, str):
                    put(encode_basestring_ascii(item))
                else:
                    value(item, inner)
                if len(pieces) >= _PIECES:
                    sink("".join(pieces))
                    pieces.clear()
            put(brackets[1] if nl is None else nl + brackets[1])
        else:
            put(encode_basestring_ascii(str(o)))

    value(obj, None if step is None else "\n")
    sink("".join(pieces))
