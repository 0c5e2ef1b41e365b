import argparse
import json
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcm import (GREVLEX, LEX, IdealFileError, buchberger_reduced,
                    load_ideal_file, parse_ideal_text, parse_polynomial,
                    parse_subset, parse_weight, primeness_check,
                    save_ideal_file)
import tropcm.cli
import tropcm.groebner
from tropcm.cache import digest, sha256
from tropcm.cli import main
from tropcm.ideal_io import write_json

CONIC = """\
# a conic hypersurface
vars: x1 x2 x3
field: Q
x1*x3 - x2^2
"""


@pytest.fixture()
def conic_path(tmp_path):
    path = tmp_path / "conic.ideal"
    path.write_text(CONIC)
    return str(path)


@pytest.fixture()
def pluck_path(tmp_path):
    path = tmp_path / "plucker.ideal"
    path.write_text("vars: x1 x2 x3 x4 x5 x6\nx1*x6 - x2*x5 + x3*x4\n")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- ideal files ----------------------------------------------------------------

def test_load_ideal_file(conic_path):
    I = load_ideal_file(conic_path)
    assert I.ring.names == ("x1", "x2", "x3")
    assert len(I.generators) == 1


def test_ideal_text_errors():
    with pytest.raises(IdealFileError, match="missing vars"):
        parse_ideal_text("x1 + x2\n" if False else "")
    with pytest.raises(IdealFileError, match=":2:"):
        parse_ideal_text("vars: x1 x2\nx1 + 1\n")
    with pytest.raises(IdealFileError, match=":2:"):
        parse_ideal_text("vars: x1 x2\nx1 + x9\n")
    with pytest.raises(IdealFileError, match="generators before vars"):
        parse_ideal_text("x1\nvars: x1\n")
    with pytest.raises(IdealFileError, match=":2: unknown field descriptor 'Fp:abc'"):
        parse_ideal_text("vars: x1\nfield: Fp:abc\n")
    with pytest.raises(IdealFileError, match=":1: duplicate variable names"):
        parse_ideal_text("vars: x x\n")
    # numbers are ASCII digits
    with pytest.raises(IdealFileError,
                       match=r":3: unexpected character '²' \(column 12\)$"):
        parse_ideal_text("vars: x1 x2\nfield: Q\nx1*x2 + x1^²\n")
    with pytest.raises(IdealFileError,
                       match=r":3: unexpected character '٣' \(column 1\)$"):
        parse_ideal_text("vars: x1 x2\nfield: Q\n٣*x1\n")


@pytest.mark.parametrize("names, bad", [("x 2 y-1", "2"), ("x y-1", "y-1"),
                                        ("1x y", "1x"), ("x ²", "²"),
                                        ("x y^2", "y^2")])
def test_variable_names_must_read_back(names, bad):
    # str() would print a name the polynomial grammar cannot parse back
    with pytest.raises(IdealFileError) as info:
        parse_ideal_text(f"# a comment\nvars: {names}\n")
    assert str(info.value) == f"<string>:2: bad variable name {bad!r}"


def test_variable_names_the_grammar_reads_are_kept():
    ideal = parse_ideal_text("vars: x_1 _y zeta2 α\nx_1*zeta2 - _y*α\n")
    assert ideal.ring.names == ("x_1", "_y", "zeta2", "α")
    (g,) = ideal.generators
    assert str(parse_polynomial(str(g), ideal.ring)) == str(g)


@pytest.mark.parametrize("line,column", [("x1*x2 + x1^²", 12), ("٣*x1", 1)])
def test_cli_non_ascii_digits_name_file_and_line(tmp_path, capsys, line, column):
    path = tmp_path / "digits.ideal"
    path.write_text(f"vars: x1 x2\nfield: Q\n{line}\n", encoding="utf-8")
    assert main(["gb", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:3: unexpected character" in err
    assert f"(column {column})" in err


@pytest.mark.parametrize("data, lineno", [
    (b"vars: x1\n\xff\n", 2), (b"\xff", 1), (b"vars: x1\r\nx1\r\n\xc3", 3),
    (b"vars: x1\rx1 \xe2\x82", 2)])
def test_cli_non_utf8_file_names_file_and_line(tmp_path, capsys, data, lineno):
    path = tmp_path / "bytes.ideal"
    path.write_bytes(data)
    assert main(["gb", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:{lineno}: not UTF-8 text\n"


# str.splitlines also ends a line at each of these; an ideal file does not
NOT_LINE_ENDS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("ch", NOT_LINE_ENDS,
                         ids=[f"U+{ord(ch):04X}" for ch in NOT_LINE_ENDS])
def test_only_cr_and_lf_end_a_line_of_an_ideal_file(tmp_path, capsys, ch):
    # in a comment the character is commented out, in a generator it is a
    # space, and a later error names the line an editor shows
    text = f"vars: x1 x2\n# a{ch}b\nx1^2 +{ch} x2^2\n"
    assert parse_ideal_text(text).generators[0].to_string() == "x1^2 + x2^2"
    path = tmp_path / "ff.ideal"
    path.write_text(text + "x3\n", encoding="utf-8")
    assert main(["gb", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:4: unknown variable 'x3' (column 1)\n")
    path.write_bytes(text.encode("utf-8") + b"\xff\n")
    assert main(["gb", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:4: not UTF-8 text\n"


@pytest.mark.parametrize("text, message", [
    ("vars: x1 x2\nvars: x1 x2\n", "<string>:2: duplicate vars line"),
    ("vars:\nx1\n", "<string>:1: empty vars line"),
    # a second field: line would replace the first
    ("vars: x1 x2 x3\nfield: Q\nfield: Fp:7\nx1*x3 - 9*x2^2\n",
     "<string>:3: duplicate field line"),
    ("field: Q\nvars: x1\nfield: Q\n", "<string>:3: duplicate field line"),
    ("vars: x1 x2 x3\nx1*x3 - x9^2\n",
     "<string>:2: unknown variable 'x9' (column 9)"),
], ids=["second-vars", "empty-vars", "second-field", "repeated-field",
        "unknown-variable"])
def test_ideal_file_header_errors(text, message):
    with pytest.raises(IdealFileError) as info:
        parse_ideal_text(text)
    assert str(info.value) == message


def test_empty_generator_list_is_zero_ideal():
    I = parse_ideal_text("vars: x1 x2\n")
    assert I.is_zero()


def test_save_load_round_trip(tmp_path, e_quad4_generic):
    path = tmp_path / "out.ideal"
    save_ideal_file(e_quad4_generic, str(path))
    back = load_ideal_file(str(path))
    assert (buchberger_reduced(back, GREVLEX).basis
            == buchberger_reduced(e_quad4_generic, GREVLEX).basis)
    assert (buchberger_reduced(back, GREVLEX).strings()
            == buchberger_reduced(e_quad4_generic, GREVLEX).strings())


def test_parse_weight_and_subset():
    from fractions import Fraction
    assert parse_weight("1/2,0,3", 3) == (Fraction(1, 2), 0, 3)
    with pytest.raises(ValueError):
        parse_weight("1,2", 3)
    assert parse_subset("1,3", 3) == frozenset({0, 2})
    assert parse_subset("", 3) == frozenset()
    with pytest.raises(ValueError):
        parse_subset("4", 3)


def test_cli_weight_with_a_zero_denominator(conic_path, capsys):
    code = main(["initial", conic_path, "-w", "1/0,0,0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: bad weight vector '1/0,0,0': "
                            "Fraction(1, 0)\n")


@pytest.mark.parametrize("subset, literal", [("1,,2", "''"), ("x", "'x'")])
def test_cli_verify_names_a_bad_subset(conic_path, capsys, subset, literal):
    code = main(["verify", conic_path, "--claim", "gr-presentation", "--A", subset])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: bad subset {subset!r}: invalid literal "
                            f"for int() with base 10: {literal}\n")


@pytest.mark.parametrize("argv, message", [
    (["initial", "-w", "١,0,0"], "bad weight vector '١,0,0'"),
    (["trop-member", "-w", "1,٠,0"], "bad weight vector '1,٠,0'"),
    (["verify", "--claim", "gr-presentation", "--A", "١"], "bad subset '١'"),
    (["verify", "--claim", "weight-sum", "-u", "1,0,0", "-w", "２,0,0"],
     "bad weight vector '２,0,0'"),
    (["quasival", "--adic", "1,３"], "bad subset '1,３'"),
])
def test_cli_flags_refuse_non_ascii_digits(conic_path, capsys, argv, message):
    # int() and Fraction() read these digits; flags take ASCII, as files do
    code = main(argv[:1] + [conic_path] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}: digits must be ASCII\n"


@pytest.mark.parametrize("argv, flag, value", [
    (["fan", "--codim", "١"], "--codim", "١"),
    (["verify", "--claim", "gr-presentation", "--A", "1", "--seed", "٤٢"],
     "--seed", "٤٢"),
    (["verify", "--claim", "iterated-initial", "--A", "1", "-i", "１"],
     "-i/--index", "１"),
    (["generic", "--audit-subsets", "٣"], "--audit-subsets", "٣"),
])
def test_cli_integer_flags_refuse_non_ascii_digits(conic_path, capsys, argv,
                                                  flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main(argv[:1] + [conic_path] + argv[1:])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: bad integer "
                                 f"{value!r}: digits must be ASCII\n")


@pytest.mark.parametrize("argv, flag, value", [
    (["fan", "--codim", "x"], "--codim", "x"),
    (["verify", "--claim", "gr-presentation", "--A", "1", "--seed", "4.2"],
     "--seed", "4.2"),
])
def test_cli_integer_flags_keep_the_argparse_message(conic_path, capsys, argv,
                                                    flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main(argv[:1] + [conic_path] + argv[1:])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: invalid int value: "
                                 f"{value!r}\n")


def test_cli_scale_refuses_non_ascii_digits(conic_path, capsys):
    code = main(["quasival", conic_path, "--deg", "--scale", "١"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: bad scaling factor '١': digits must be ASCII\n"


def test_field_modulus_refuses_non_ascii_digits(tmp_path, capsys):
    path = tmp_path / "conic3.ideal"
    path.write_text("vars: x1 x2 x3\nfield: Fp:٣\nx1*x3 - x2^2\n",
                    encoding="utf-8")
    assert main(["gb", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}:2: bad field descriptor 'Fp:٣': "
                            f"digits must be ASCII\n")


def test_a_large_prime_modulus_loads_at_once(tmp_path, capsys):
    # trial division took minutes on this modulus
    path = tmp_path / "conic-large.ideal"
    path.write_text("vars: x1 x2 x3\nfield: Fp:1000000000000000003\n"
                    "x1*x3 - x2^2\n")
    code, data = run_json(capsys, ["gb", str(path)])
    assert code == 0
    assert data["ring"] == "Fp:1000000000000000003[x1,x2,x3]"
    assert data["basis"] == ["x2^2 + 1000000000000000002*x1*x3"]


# -- options ----------------------------------------------------------------------

IO = {"-h", "--help", "--cache-dir", "-o", "--output"}
COUNTS = {"--seed", "--bound", "--maxdeg", "--samples", "--samples-per-cone"}

# each command takes only the options it reads
OPTIONS = {
    "gb": IO | {"--order", "-w"},
    "initial": IO | {"-w"},
    "trop-member": IO | {"-w"},
    "prime-check": IO | {"-w"},
    "generic": IO | {"--seed", "--bound", "--audit-maxA", "--audit-subsets"},
    "fan": IO | {"--seed", "--codim"},
    "quasival": IO | {"--maxdeg", "-w", "--adic", "--deg", "--scale",
                      "--elements"},
    "verify": IO | COUNTS | {"--claim", "--A", "-w", "-u", "-i", "--index"},
    "audit-cm": IO | COUNTS,
    "report": {"-h", "--help"},
}


def _commands(parser=None):
    (sub,) = [a for a in (parser or tropcm.cli.build_parser())._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_each_command_takes_the_options_it_reads():
    options = {name: {flag for action in parser._actions
                      for flag in action.option_strings}
               for name, parser in _commands().items()}
    assert options == OPTIONS
    # the seven options every command used to take fill 32 slots, not 63
    common = COUNTS | {"--cache-dir", "--output"}
    assert sum(len(common & flags) for flags in options.values()) == 32


def test_one_command_parser_is_that_commands_full_subparser():
    for name, parser in _commands().items():
        alone = _commands(tropcm.cli.build_parser(name))
        assert list(alone) == [name]
        assert alone[name].format_help() == parser.format_help()


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nosuch"], ["verify"], ["verify", "-h"], ["audit-cm", "-h"],
    ["gb"], ["gb", "--seed", "3", "x"], ["fan", "x", "--bound", "5"],
    ["quasival", "x"], ["quasival", "x", "-w", "1,0,0", "--adic", "1"],
    ["report"], ["--hel"], ["gb", "x", "--order", "deglex"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_cli_help_and_usage_errors_match_the_full_parser(capsys, argv):
    def outcome(parse):
        with pytest.raises(SystemExit) as exit_info:
            parse(argv)
        return (exit_info.value.code, *capsys.readouterr())

    assert outcome(main) == outcome(tropcm.cli.build_parser().parse_args)


def test_cli_builds_the_full_parser_only_on_a_usage_error(conic_path, capsys,
                                                         monkeypatch):
    built = []
    build = tropcm.cli.build_parser

    def counted(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(tropcm.cli, "build_parser", counted)
    assert main(["gb", conic_path]) == 0
    assert built == ["gb"]
    with pytest.raises(SystemExit):
        main(["gb", conic_path, "--seed", "3"])
    assert built == ["gb", "gb", None]
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["gb", "--seed", "3"],
    ["quasival", "--deg", "--samples", "5"],
    ["prime-check", "--maxdeg", "2"],
    ["fan", "--bound", "5"],
    ["quasival", "-w", "1,0,0", "--adic", "1"],
    ["quasival"],
], ids=lambda argv: " ".join(argv))
def test_cli_usage_errors_exit_2_with_empty_stdout(conic_path, capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv[:1] + [conic_path] + argv[1:])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert "error:" in captured.err


# -- subcommands ------------------------------------------------------------------

def test_cli_gb(conic_path, capsys):
    code, data = run_json(capsys, ["gb", conic_path])
    assert code == 0
    assert data["basis"] == ["x2^2 - x1*x3"]


def test_cli_gb_under_a_weight(conic_path, capsys):
    # the lowest weight leads: x1*x3 at w = (0,1,0)
    code, data = run_json(capsys, ["gb", conic_path, "-w", "0,1,0"])
    assert code == 0
    assert data["order"] == "weight(0,1,0);grevlex"
    assert data["basis"] == ["-x2^2 + x1*x3"]


def test_cli_gb_ignores_a_cache_entry_written_for_another_order(tmp_path, capsys,
                                                               fresh_cache):
    path = tmp_path / "cubic.ideal"
    path.write_text("vars: x1 x2 x3 x4\nx1*x3 - x2^2\nx1*x4 - x2*x3\nx2*x4 - x3^2\n")
    cache = tmp_path / "gbcache"
    ideal = load_ideal_file(str(path))
    files = {order: cache / (digest(ideal.generator_key(), order.descriptor()) + ".json")
             for order in (GREVLEX, LEX)}
    bases = {}
    for order in (GREVLEX, LEX):
        fresh_cache()       # as a new process
        argv = ["gb", str(path), "--order", order.kind, "--cache-dir", str(cache)]
        bases[order] = run_json(capsys, argv)[1]
    assert bases[GREVLEX]["basis"] != bases[LEX]["basis"]
    grevlex_entry = files[GREVLEX].read_bytes()
    files[GREVLEX].write_bytes(files[LEX].read_bytes())
    fresh_cache()
    code, data = run_json(capsys, ["gb", str(path), "--cache-dir", str(cache)])
    assert code == 0
    assert data == bases[GREVLEX]
    assert files[GREVLEX].read_bytes() == grevlex_entry     # overwritten


def test_cli_initial(conic_path, capsys):
    code, data = run_json(capsys, ["initial", "-w", "1,0,0", conic_path])
    assert code == 0
    assert data["basis"] == ["x2^2"]


def test_cli_trop_member(conic_path, capsys):
    code, data = run_json(capsys, ["trop-member", "-w", "1,0,0", conic_path])
    assert code == 0
    assert data["member"] is False and data["witness"] == "x2^2"
    code, data = run_json(capsys, ["trop-member", "-w", "1,1,1", conic_path])
    assert data["member"] is True


@pytest.mark.parametrize("command", ["initial", "trop-member"])
def test_cli_weight_echo_is_the_parsed_weight(conic_path, capsys, command):
    outs = []
    for w in ("2/4,0,0", "1/2,0,0"):
        assert main([command, conic_path, "-w", w]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["w"] == "1/2,0,0"


def test_cli_generic_writes_ideal_and_audit(conic_path, tmp_path, capsys):
    out = tmp_path / "generic.ideal"
    code, data = run_json(capsys, ["generic", conic_path, "--seed", "42",
                                   "--bound", "100", "-o", str(out)])
    assert code == 0
    assert data["pass"] is True and data["reseeds"] == 0
    assert {"A", "expected_dim", "actual_dim", "pass"} <= set(data["checks"][0])
    transformed = load_ideal_file(str(out))
    assert len(transformed.generators) == 1
    assert len(transformed.generators[0].terms) > 1


@pytest.mark.parametrize("seed, used, reseeds, code",
                         [(6, 7, 1, 0), (30, 35, 5, 1)])
def test_cli_generic_reseeds_until_the_audit_passes(tmp_path, capsys, seed,
                                                    used, reseeds, code):
    # over F_2 a change of coordinates often maps a plane of x1*x2 = 0 to a
    # coordinate plane; five reseeds at most, then the failing audit is kept
    path = tmp_path / "planes2.ideal"
    path.write_text("vars: x1 x2 x3\nfield: Fp:2\nx1*x2\n")
    out = tmp_path / "generic.ideal"
    got, data = run_json(capsys, ["generic", str(path), "--seed", str(seed),
                                  "-o", str(out)])
    assert got == code
    assert (data["seed"], data["reseeds"]) == (used, reseeds)
    assert data["pass"] is (code == 0)
    assert data["pass"] == all(c["pass"] for c in data["checks"])
    written = load_ideal_file(str(out))
    assert [str(g) for g in written.generators] == data["ideal"]


def test_cli_fan(conic_path, capsys):
    code, data = run_json(capsys, ["fan", conic_path])
    assert code == 0
    assert data["n"] == 3 and data["d"] == 2 and data["codim"] == 0
    assert len(data["cones"]) == 3
    for cone in data["cones"]:
        assert {"A", "sample_w", "in_w_gb", "monomial_free",
                "prime_verdict"} <= set(cone)


def test_cli_fan_decides_monomials_without_a_witness(tmp_path, capsys):
    # x1^201 is its own initial ideal, and its least monomial is past the
    # witness search's degree cap; fan needs no witness
    path = tmp_path / "power.ideal"
    path.write_text("vars: x1 x2\nx1^201\n")
    code, data = run_json(capsys, ["fan", str(path)])
    assert code == 0
    (cone,) = data["cones"]
    assert cone["in_w_gb"] == ["x1^201"] and cone["monomial_free"] is False


def test_cli_fan_codim0_bases_are_the_audit_cm_cone_bases(e_rnc4_generic,
                                                          tmp_path, capsys):
    # fan samples each cone with --seed, the first sample audit-cm takes
    path = tmp_path / "rnc4.ideal"
    save_ideal_file(e_rnc4_generic, str(path))
    _, fan = run_json(capsys, ["fan", str(path), "--codim", "0"])
    _, audit = run_json(capsys, ["audit-cm", str(path)])
    (claim,) = audit["claims"]
    assert [(c["A"], c["in_w_gb"]) for c in fan["cones"]] == [
        (c["A"], c["basis"]) for c in claim["evidence"]["cones"]]


def test_cli_quasival_table(conic_path, capsys):
    code, data = run_json(capsys, ["quasival", "-w", "1,0,0", "--maxdeg", "2",
                                   conic_path])
    assert code == 0
    values = {e["element"]: e["value"] for e in data["entries"]}
    assert values["1"] == "0" and values["x1"] == "1" and values["x2"] == "0"


def test_cli_quasival_elements(conic_path, capsys):
    code, data = run_json(capsys, ["quasival", "--adic", "1",
                                   "--elements", "x2^2; x1*x3 - x2^2",
                                   conic_path])
    assert code == 0
    values = {e["element"]: e["value"] for e in data["entries"]}
    assert values["x2^2"] == "1"
    assert values["-x2^2 + x1*x3"] == "INFINITY"


# grevlex standard monomials of the conic up to degree 4, in table order
CONIC_STANDARD = (
    "1 x1 x2 x3 x1^2 x1*x2 x1*x3 x2*x3 x3^2 x1^3 x1^2*x2 x1^2*x3 x1*x2*x3 "
    "x1*x3^2 x2*x3^2 x3^3 x1^4 x1^3*x2 x1^3*x3 x1^2*x2*x3 x1^2*x3^2 "
    "x1*x2*x3^2 x1*x3^3 x2*x3^3 x3^4").split()


@pytest.mark.parametrize("flags, descriptor, values", [
    (["--deg"], "deg", "0 1 1 1 2 2 2 2 2 3 3 3 3 3 3 3 4 4 4 4 4 4 4 4 4"),
    (["--deg", "--scale", "1/2"], "1/2 (.) deg",
     "0 1/2 1/2 1/2 1 1 1 1 1 3/2 3/2 3/2 3/2 3/2 3/2 3/2 2 2 2 2 2 2 2 2 2"),
    (["--adic", "1", "--scale", "2"], "2 (.) ord_{1}",
     "0 2 0 0 4 2 2 0 0 6 4 4 2 2 0 0 8 6 6 4 4 2 2 0 0"),
])
def test_cli_quasival_tables_exact(conic_path, capsys, flags, descriptor,
                                   values):
    assert main(["quasival", conic_path] + flags) == 0
    entries = [{"element": e, "value": v}
               for e, v in zip(CONIC_STANDARD, values.split(), strict=True)]
    expected = {"entries": entries, "quasivaluation": descriptor}
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_cli_quasival_weight_elements_exact(conic_path, capsys):
    assert main(["quasival", conic_path, "-w", "1,0,0",
                 "--elements", "x1; x2^2; x1*x3 - x2^2"]) == 0
    expected = {"entries": [{"element": "x1", "value": "1"},
                            {"element": "x2^2", "value": "1"},
                            {"element": "-x2^2 + x1*x3",
                             "value": "INFINITY"}],
                "quasivaluation": "v_w(1,0,0)"}
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_cli_verify_single_claim(conic_path, capsys):
    code, data = run_json(capsys, ["verify", "--claim", "cor-initial",
                                   "--A", "1", "-w", "1,0,0", conic_path])
    assert code == 0
    assert data["claims"][0]["claim"] == "initial-formula"
    assert data["claims"][0]["verdict"] == "pass"
    assert data["run_id"]


def test_cli_run_id_ignores_output_and_cache_paths(conic_path, tmp_path,
                                                  fresh_cache, capsys):
    argv = ["verify", "--claim", "cor-initial", "--A", "1", "-w", "1,0,0",
            conic_path]
    reports = []
    for name in ("a", "b"):
        fresh_cache()
        out = tmp_path / f"report-{name}.json"
        assert main(argv + ["-o", str(out),
                            "--cache-dir", str(tmp_path / f"cache-{name}")]) == 0
        reports.append(json.loads(out.read_text()))
    first, second = reports
    assert first["config"]["output"] != second["config"]["output"]
    assert first["config"]["cache_dir"] != second["config"]["cache_dir"]
    assert first["run_id"] == second["run_id"]


def test_cli_report_config_block_and_run_id(tmp_path, monkeypatch, fresh_cache,
                                            capsys):
    monkeypatch.chdir(tmp_path)     # the report names its source as given
    (tmp_path / "conic.ideal").write_text(CONIC)
    code, data = run_json(capsys, [
        "verify", "conic.ideal", "--claim", "cor-initial", "--A", "1", "-w", "1,0,0",
        "--seed", "7", "--bound", "50", "--maxdeg", "2", "--samples", "5",
        "--samples-per-cone", "2", "--cache-dir", "gbcache"])
    assert code == 0
    assert data["config"] == {"seed": 7, "bound": 50, "maxdeg": 2, "samples": 5,
                              "samples_per_cone": 2, "cache_dir": "gbcache",
                              "output": "", "field": "Q"}
    assert data["run_id"] == "544dd4f9e7bd"


def test_cli_audit_cm_warm_cache_repeats_the_report(e_rnc4_generic, tmp_path,
                                                   fresh_cache, monkeypatch,
                                                   capsys):
    path = tmp_path / "rnc4.ideal"
    save_ideal_file(e_rnc4_generic, str(path))
    cache = tmp_path / "gbcache"
    argv = ["audit-cm", str(path), "--cache-dir", str(cache)]
    fresh_cache(cache)
    assert main(argv) == 0
    cold = capsys.readouterr().out
    runs = []
    raw = tropcm.groebner.groebner_basis_raw
    monkeypatch.setattr(tropcm.groebner, "groebner_basis_raw",
                        lambda *args, **kw: runs.append(args) or raw(*args, **kw))
    fresh_cache(cache)          # as a new process: the same directory
    assert main(argv) == 0
    assert capsys.readouterr().out == cold
    assert runs == []


def test_cli_verify_fail_exit_code(tmp_path, capsys):
    # a counterexample: x1 lies in rad(<x1^2>) but not in <x1^2>
    path = tmp_path / "square.ideal"
    path.write_text("vars: x1 x2 x3\nx1^2\n")
    code, data = run_json(capsys, ["verify", "--claim", "radical-spot",
                                   str(path)])
    assert code == 1
    (claim,) = data["claims"]
    assert claim["verdict"] == "fail" and claim["evidence"]["witness"] == "x1"


def test_cli_verify_deterministic_reports(conic_path, capsys):
    argv = ["verify", "--claim", "gr-presentation", "--A", "1", conic_path]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_cli_verify_all_linear(tmp_path, capsys):
    path = tmp_path / "lin.ideal"
    path.write_text("vars: x1 x2 x3\nx1 + x2 + x3\n")
    code, data = run_json(capsys, ["verify", "--claim", "all", "--samples",
                                   "10", str(path)])
    assert code == 0
    claims = {c["claim"] for c in data["claims"]}
    assert {"genericity-audit", "initial-formula", "gr-presentation",
            "epsilon-facts", "well-poised", "cm-fan-coincidence",
            "radicality-spot"} <= claims
    assert all(c["verdict"] in ("pass", "hypothesis-not-met")
               for c in data["claims"])


def test_cli_verify_all_at_maxdeg_zero(e_pluck_generic, tmp_path, capsys):
    path = tmp_path / "g24.ideal"
    save_ideal_file(e_pluck_generic, str(path))
    code, data = run_json(capsys, ["verify", str(path), "--claim", "all",
                                   "--maxdeg", "0"])
    assert code == 0
    decompositions = [c for c in data["claims"]
                      if c["claim"] == "quasival-decomposition"]
    assert len(decompositions) == 3
    assert all(c["verdict"] == "pass" and c["evidence"]["checked"] == 1
               for c in decompositions)


@pytest.mark.parametrize("command", [["verify", "--claim", "all"], ["audit-cm"]])
def test_cli_fan_commands_refuse_krull_dimension_zero(tmp_path, capsys,
                                                      command):
    path = tmp_path / "point.ideal"
    path.write_text("vars: x1 x2\nx1\nx2\n")
    assert main([command[0], str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need 1 <= d <= n\n"


def test_cli_audit_cm(conic_path, capsys):
    code, data = run_json(capsys, ["audit-cm", conic_path])
    assert code == 0
    assert data["claims"][0]["claim"] == "cm-fan-coincidence"


@pytest.mark.parametrize("path", ["conic_path", "pluck_path"])
def test_cli_audit_cm_is_verify_cm_fan(path, request, capsys, fresh_cache):
    path = request.getfixturevalue(path)
    runs = []
    for argv in (["audit-cm", path], ["verify", path, "--claim", "cm-fan"]):
        fresh_cache()
        runs.append((main(argv), capsys.readouterr()))
    assert runs[0] == runs[1]


def test_cli_cm_fan_off_generic_position_is_an_unmet_hypothesis(pluck_path,
                                                                  capsys):
    # the raw Pluecker quadric: samples of cone [1,2,3,4] disagree, and
    # x1, ..., x4 is no regular sequence there, so that is not a counterexample
    code, data = run_json(capsys, ["verify", pluck_path, "--claim", "cm-fan"])
    assert code == 0
    (claim,) = data["claims"]
    assert claim["verdict"] == "hypothesis-not-met"
    assert claim["evidence"] == {"reason": "not a regular sequence: x1, x2, x3, x4",
                                 "cone": [1, 2, 3, 4]}


def test_cli_prime_check(conic_path, capsys):
    code, data = run_json(capsys, ["prime-check", conic_path])
    assert code == 0
    assert data["verdict"] == "Prime"
    code, data = run_json(capsys, ["prime-check", "-w", "0,1,0", conic_path])
    assert data["verdict"] == "NotPrime"  # in_w = <x1*x3>


@pytest.mark.parametrize("text, verdict, certificate", [
    ("vars: x1 x2 x3\n1\n", "NotPrime",
     {"method": "monomial", "data": {"witness": "1", "note": "unit ideal"}}),
    # no Gram matrix in characteristic 2
    ("vars: x1 x2 x3\nfield: Fp:2\nx1*x3 + x2^2\n", "Undetermined",
     {"method": "principal-quadric-rank",
      "data": {"note": "rank certificate unavailable in characteristic 2"}}),
], ids=["unit-ideal", "quadric-over-F2"])
def test_cli_prime_check_edge_cases(tmp_path, capsys, text, verdict, certificate):
    path = tmp_path / "edge.ideal"
    path.write_text(text)
    code, data = run_json(capsys, ["prime-check", str(path)])
    assert code == 0
    assert data["verdict"] == verdict and data["certificate"] == certificate


def test_cli_report_rendering(conic_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["verify", "--claim", "cor-initial", "--A", "1", "-w", "1,0,0",
          "-o", str(out), conic_path])
    capsys.readouterr()
    code = main(["report", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "initial-formula" in text and "pass" in text


@pytest.mark.parametrize("body", [
    [], {"claims": [{}]}, {},
    {"basis": ["x2^2 - x1*x3"], "order": "grevlex", "ring": "Q[x1,x2,x3]"},
    {"codim": 0, "cones": [{"A": [1], "in_w_gb": ["x2^2"],
                            "monomial_free": False, "prime_verdict": "NotPrime",
                            "sample_w": "8,0,0"}], "d": 2, "n": 3},
    {"run_id": "0123456789ab", "seed": 42, "field": "Q", "claims": []},
    b"not json", b"\xff\xfe",
], ids=["list", "claim-without-verdict", "empty", "gb-output", "fan-output",
        "no-instance", "not-json", "not-utf8"])
def test_cli_report_rejects_a_file_that_is_not_a_report(tmp_path, capsys, body):
    path = tmp_path / "not-a-report.json"
    path.write_bytes(body if isinstance(body, bytes) else json.dumps(body).encode())
    code = main(["report", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: not a tropcm report\n"


def test_cli_error_handling(tmp_path, capsys):
    code = main(["gb", str(tmp_path / "missing.ideal")])
    err = capsys.readouterr().err
    assert code == 2 and "error:" in err
    # a missing report keeps the operating system's message
    missing = tmp_path / "missing.json"
    assert main(["report", str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{missing}'\n")


def test_cli_internal_error_exit_code(conic_path, monkeypatch, capsys):
    def degenerate(*args, **kwargs):
        raise RuntimeError("could not sample an invertible matrix")

    monkeypatch.setattr(tropcm.cli, "random_gl", degenerate)
    code = main(["generic", conic_path, "--seed", "42"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["--claim", "well-poised", "--samples-per-cone", "0"],
    ["--claim", "cm-fan", "--samples-per-cone", "0"],
    ["--claim", "quasival-decomposition", "--A", "1", "--samples", "-3"],
    ["--claim", "quasival-decomposition", "--A", "1", "--samples", "-3",
     "--maxdeg", "-1"],
    ["--claim", "all", "--samples", "-1"],
])
def test_cli_verify_rejects_empty_sampling(conic_path, capsys, argv):
    code = main(["verify", conic_path] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--claim", "initial-formula", "--A", "1"],
    ["verify", "--claim", "all"],
    ["audit-cm"],
], ids=["one-claim", "all", "audit-cm"])
def test_cli_rejects_no_sample_per_cone_up_front(conic_path, capsys, argv):
    # the flag's own message, before any claim runs: not fan.sweep's
    code = main(argv[:1] + [conic_path] + argv[1:] + ["--samples-per-cone", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --samples-per-cone must be at least 1\n"


@pytest.mark.parametrize("flag", ["--maxdeg", "--samples"])
def test_cli_verify_rejects_a_negative_count(conic_path, capsys, flag):
    code = main(["verify", conic_path, "--claim", "all", flag, "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {flag} must be non-negative\n"


def test_cli_quasival_rejects_negative_maxdeg(conic_path, capsys):
    code = main(["quasival", conic_path, "--deg", "--maxdeg", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: --maxdeg") and captured.out == ""


@pytest.mark.parametrize("flag", ["--audit-maxA", "--audit-subsets"])
def test_cli_generic_rejects_a_negative_audit_count(conic_path, capsys, flag):
    # -1 subsets would audit nothing and pass, or leak random.sample's error
    code = main(["generic", conic_path, flag, "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {flag} must be at least 1\n"


@pytest.mark.parametrize("flag", ["--audit-maxA", "--audit-subsets"])
def test_cli_generic_refuses_an_audit_of_no_subset(conic_path, capsys, flag):
    # 0 would audit nothing and still print "pass": true with no checks
    code = main(["generic", conic_path, flag, "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {flag} must be at least 1\n"
    assert main(["generic", conic_path, flag, "1"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]


def test_cli_generic_default_audit_in_dimension_one_is_empty(tmp_path,
                                                            capsys):
    # d = 1, so the default maxA = d - 1 = 0 audits no subset, legitimately
    path = tmp_path / "point.ideal"
    path.write_text("vars: x1 x2\nfield: Q\nx1\n")
    assert main(["generic", str(path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is True and summary["checks"] == []


def test_cli_quasival_rejects_a_zero_denominator_scale(conic_path, capsys):
    code = main(["quasival", conic_path, "--deg", "--scale", "1/0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: scaling factor 1/0 has a zero denominator\n"


FP7_CONIC = "vars: x1 x2 x3\nfield: Fp:7\nx1*x3 - x2^2\n"


def test_cli_generic_samples_over_the_file_field(tmp_path, capsys):
    # over Q this seed draws a matrix that is singular mod 7
    raw = tmp_path / "conic7.ideal"
    raw.write_text(FP7_CONIC)
    out = tmp_path / "generic7.ideal"
    code, data = run_json(capsys, ["generic", str(raw), "--seed", "4",
                                   "-o", str(out)])
    assert code == 0 and data["pass"] is True
    transformed = load_ideal_file(str(out))
    assert transformed.ring.field.name == "Fp:7"
    verdict, cert = primeness_check(transformed)
    assert verdict == "Prime" and cert["data"]["rank"] == 3


def test_cli_report_field_comes_from_the_file(tmp_path, capsys):
    path = tmp_path / "conic7.ideal"
    path.write_text(FP7_CONIC)
    code, data = run_json(capsys, ["verify", "--claim", "gr-presentation",
                                   "--A", "1", str(path)])
    assert code == 0
    assert data["config"]["field"] == data["field"] == "Fp:7"


def test_cli_output_file_round_trip(conic_path, tmp_path, capsys):
    out = tmp_path / "gb.json"
    code = main(["gb", conic_path, "-o", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["basis"] == ["x2^2 - x1*x3"]


# -- report text ------------------------------------------------------------------

@pytest.mark.parametrize("argv, output_line", [
    (["gb"], False),
    (["fan"], False),
    (["verify", "--claim", "cor-initial", "--A", "1", "-w", "1,0,0"], True),
])
def test_cli_stdout_and_output_file_hold_the_same_bytes(conic_path, tmp_path,
                                                       capsys, argv,
                                                       output_line):
    assert main(argv + [conic_path]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(argv + [conic_path, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    if output_line:     # the report names the file it is written to
        printed = printed.replace('"output": ""',
                                  f'"output": {json.dumps(str(out))}', 1)
    assert out.read_bytes() == printed.encode("ascii")


def _writer_text(obj, indent):
    pieces = []
    write_json(obj, pieces.append, indent)
    return "".join(pieces)


# one key type per dict: json sorts the keys, and str and int do not compare
_dict_keys = (st.text(), st.one_of(st.integers(), st.floats(), st.booleans()),
              st.none())
_json_values = st.recursive(
    st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats(),
              st.fractions()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        *(st.dictionaries(keys, children, max_size=4) for keys in _dict_keys)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_report_writer_matches_json_dumps(obj):
    for indent in (2, None):
        assert _writer_text(obj, indent) == json.dumps(
            obj, indent=indent, sort_keys=True, default=str)


def test_report_writer_rejects_the_keys_json_rejects():
    with pytest.raises(TypeError, match="keys must be str"):
        _writer_text({(1, 2): 0}, 2)


class _DigestStream:
    """A text stream that keeps the SHA-256 of what it is given, not the text."""

    def __init__(self):
        self.sha = sha256()

    def write(self, text):
        self.sha.update(text.encode("utf-8"))
        return len(text)


def test_report_is_hashed_and_written_in_bounded_memory(conic_path,
                                                        monkeypatch):
    ideal = load_ideal_file(conic_path)
    args = argparse.Namespace(seed=42, bound=100, maxdeg=2, samples=5,
                              samples_per_cone=3, cache_dir=None, output=None)
    # shaped like the well-poised evidence: cone samples holding Gram matrices
    samples = [{"A": [k % 7, k % 11], "verdict": "NotPrime",
                "matrix": [[str(Fraction(k * i - j, 7 + i + j)) for j in range(6)]
                           for i in range(6)]}
               for k in range(4000)]
    reports = [{"claim": "well-poised", "params": {"samples_per_cone": 3},
                "verdict": "pass", "evidence": {"samples": samples}}]
    stream = _DigestStream()
    monkeypatch.setattr(sys, "stdout", stream)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        body = tropcm.cli._report_payload(args, ideal, "synthetic", reports)
        tropcm.cli._emit(body, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = json.dumps(body, indent=2, sort_keys=True, default=str) + "\n"
    assert len(text) > 5_000_000
    assert peak - before < 1_000_000
    assert stream.sha.hexdigest() == sha256(text.encode("utf-8")).hexdigest()
    hashed = {k: v for k, v in body.items() if k != "run_id"}
    hashed["config"] = {k: v for k, v in body["config"].items()
                        if k not in ("cache_dir", "output")}
    assert body["run_id"] == digest(
        json.dumps(hashed, sort_keys=True, default=str))[:12]
