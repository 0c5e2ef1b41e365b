import json

import pytest

from tropcm import (GREVLEX, LEX, IdealFileError, buchberger_reduced,
                    load_ideal_file, parse_ideal_text, parse_subset,
                    parse_weight, primeness_check, save_ideal_file)
import tropcm.cli
import tropcm.groebner
from tropcm.cache import digest
from tropcm.cli import main

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


@pytest.mark.parametrize("line,column", [("x1*x2 + x1^²", 12), ("٣*x1", 1)])
def test_cli_non_ascii_digits_name_file_and_line(tmp_path, capsys, line, column):
    path = tmp_path / "digits.ideal"
    path.write_text(f"vars: x1 x2\nfield: Q\n{line}\n", encoding="utf-8")
    assert main(["gb", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:3: unexpected character" in err
    assert f"(column {column})" in err


def test_empty_generator_list_is_zero_ideal():
    I = parse_ideal_text("vars: x1 x2\n")
    assert I.is_zero()


def test_save_load_round_trip(tmp_path, e_quad4_generic):
    path = tmp_path / "out.ideal"
    save_ideal_file(e_quad4_generic, str(path))
    back = load_ideal_file(str(path))
    assert back == e_quad4_generic
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


# -- subcommands ------------------------------------------------------------------

def test_cli_gb(conic_path, capsys):
    code, data = run_json(capsys, ["gb", conic_path])
    assert code == 0
    assert data["basis"] == ["x2^2 - x1*x3"]


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


def test_cli_fan(conic_path, capsys):
    code, data = run_json(capsys, ["fan", conic_path])
    assert code == 0
    assert data["n"] == 3 and data["d"] == 2 and data["codim"] == 0
    assert len(data["cones"]) == 3
    for cone in data["cones"]:
        assert {"A", "sample_w", "in_w_gb", "monomial_free",
                "prime_verdict"} <= set(cone)


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
    path = tmp_path / "mono.ideal"
    path.write_text("vars: x1 x2 x3\nx1*x2\n")
    code, data = run_json(capsys, ["verify", "--claim", "cor-initial",
                                   "--A", "1", "-w", "1,0,0", str(path)])
    assert code == 1
    assert data["claims"][0]["verdict"] == "fail"


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


def test_cli_prime_check(conic_path, capsys):
    code, data = run_json(capsys, ["prime-check", conic_path])
    assert code == 0
    assert data["verdict"] == "Prime"
    code, data = run_json(capsys, ["prime-check", "-w", "0,1,0", conic_path])
    assert data["verdict"] == "NotPrime"  # in_w = <x1*x3>


def test_cli_report_rendering(conic_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["verify", "--claim", "cor-initial", "--A", "1", "-w", "1,0,0",
          "-o", str(out), conic_path])
    capsys.readouterr()
    code = main(["report", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "initial-formula" in text and "pass" in text


@pytest.mark.parametrize("body", [[], {"claims": [{}]}],
                         ids=["list", "claim-without-verdict"])
def test_cli_report_rejects_a_file_that_is_not_a_report(tmp_path, capsys, body):
    path = tmp_path / "not-a-report.json"
    path.write_text(json.dumps(body))
    code = main(["report", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: not a tropcm report\n"


def test_cli_error_handling(tmp_path, capsys):
    code = main(["gb", str(tmp_path / "missing.ideal")])
    err = capsys.readouterr().err
    assert code == 2 and "error:" in err


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
    assert captured.err == f"error: {flag} must be non-negative\n"


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
    assert verdict == "Prime" and cert.data["rank"] == 3


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
