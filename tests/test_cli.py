"""Command dispatch, exit codes, deterministic output, file round-trips."""

import hashlib
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from twistcert import cli, fixture_path
from twistcert.cli import CertificateSyntaxError, format_certificate, parse_certificate, run
from twistcert import (build_certificate, CurveClass, Direction, ProofStep, SurfaceSpec,
                       torus_presentation, verify_certificate)
from twistcert.presentation import ScriptSyntaxError, every_rule, format_script, parse_script

from test_certificates import RECORDED_DETERMINANT_REFUSALS, recorded_determinant_text


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_script_fixture_exits_zero(capsys):
    code, out, _ = invoke(capsys, "verify-script", str(fixture_path("chain_a.proof")))
    assert code == 0
    assert "ok" in out


def test_verify_script_broken_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.proof"
    bad.write_text("start: c1 c2 c3\nstep 1: STAR() LR @ 1\nend: c1 c2 c3\n")
    code, out, _ = invoke(capsys, "verify-script", str(bad))
    assert code == 1
    assert "FAIL at step 1" in out


def test_det_example_output(capsys):
    code, out, _ = invoke(capsys, "det", "--word", "a1^-1 r", "--genus", "6", "--k", "0")
    assert code == 0
    assert out.strip() == "+1 (in twist subgroup)"


def test_det_rejects_inconsistent_genus(capsys):
    code, _, err = invoke(capsys, "det", "--word", "r", "--genus", "7", "--k", "0")
    assert code == 2 and "error" in err


def test_det_takes_no_reflection_determinant(capsys):
    code, out, err = invoke(capsys, "det", "--word", "r", "--genus", "6",
                            "--k", "0", "--r-det", "-1")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --r-det -1" in err


def test_det_without_embedding_data_is_a_usage_error(capsys):
    code, _, err = invoke(capsys, "det", "--word", "r", "--genus", "7")
    assert code == 2 and "error" in err


def test_rep_check_star_word(capsys):
    code, out, _ = invoke(capsys, "rep-check", "--word", "( b a1 a2 a3 )^3 ( c1 c2 c3 )^-1")
    assert code == 0
    assert "identity: yes" in out


@pytest.mark.parametrize("name, assignment", [("h", "genus3"), ("s", "genus3"),
                                              ("s", "genus3-h")])
def test_rep_check_of_a_generator_the_assignment_lacks_is_a_usage_error(
        capsys, name, assignment):
    code, out, err = invoke(capsys, "rep-check", "--word", f"b {name}",
                            "--assignment", assignment)
    assert code == 2 and out == ""
    assert err == f"error: generator {name!r} has no matrix in the {assignment} assignment\n"


def test_classify_output(capsys):
    code, out, _ = invoke(capsys, "classify", "--surface", "n:8", "--curve", "nonsep:oc")
    assert code == 0
    assert "T1-nonorientable" in out
    assert "out of scope (conjectural)" in out


def _sweep_curve_spellings(orientable, genus):
    """nonsep, nonsep:oc, nonsep:nc and every unordered side split whose
    genus contributions add up to the surface genus."""
    out = ["nonsep", "nonsep:oc", "nonsep:nc"]
    if orientable:
        out += [f"sep:o{i}+o{genus - i}" for i in range(1, genus // 2 + 1)]
    else:
        out += [f"sep:n{i}+n{genus - i}" for i in range(1, genus // 2 + 1)]
        out += [f"sep:o{i}+n{genus - 2 * i}" for i in range(1, (genus - 1) // 2 + 1)]
    return out


def test_classify_output_is_unchanged(capsys):
    """SHA-256 of the exit code and stdout of classify for every curve
    spelling on o:1..8 and n:1..24."""
    digest, count = hashlib.sha256(), 0
    for kind, top in (("o", 8), ("n", 24)):
        for genus in range(1, top + 1):
            for curve in _sweep_curve_spellings(kind == "o", genus):
                surface = f"{kind}:{genus}"
                code, out, _ = invoke(capsys, "classify", "--surface", surface, "--curve", curve)
                digest.update(f"{surface} {curve} {code}\n{out}".encode())
                count += 1
    assert count == 388
    assert digest.hexdigest() == (
        "28a7172f1e3040d9e21a59cc790f9223e170f812ee0f465fe1100262a89ee8fc")


def test_classify_unrealizable_is_exit_two(capsys):
    code, _, err = invoke(capsys, "classify", "--surface", "o:3", "--curve", "nonsep:nc")
    assert code == 2 and "error" in err


def test_certify_out_of_scope_exits_two(capsys):
    code, _, err = invoke(capsys, "certify", "--surface", "n:8", "--curve", "nonsep:oc",
                          "--flavor", "twist", "--n", "1")
    assert code == 2
    assert "out of scope (conjectural)" in err


def test_certify_round_trip_through_files(tmp_path, capsys):
    script_path = tmp_path / "cert.proof"
    code, out, _ = invoke(capsys, "certify", "--surface", "n:7", "--curve", "sep:n2+n5",
                          "--flavor", "twist", "--n", "3",
                          "--emit-script", str(script_path))
    assert code == 0
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(out)

    code, out2, _ = invoke(capsys, "verify-cert", str(cert_path))
    assert code == 0 and "ok" in out2

    code, _, _ = invoke(capsys, "verify-script", str(script_path), "--rules", "torus+h")
    assert code == 0


# Two certificates as ``certify`` wrote them before c1^n = P^n Q^n was
# derived by induction on n: a certificate holds its whole proof, so the
# ones the earlier builder wrote still verify.
_EARLIER = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, surface, curve, n, flavor, digest", [
    ("o3-nonsep-extended-n5.cert", "o:3", "nonsep", 5, "extended-group",
     "1d19c72ce8075f91117bfab7a024f918e4380296b2efb3e5e52e6a4a716df3f9"),
    ("n8-nonsepnc-twist-n-4.cert", "n:8", "nonsep:nc", -4, "twist-subgroup",
     "def28c792c1e288a87f97af7e8debd648abb2b1a1404e2f2056c26c9ba0ba576"),
])
def test_a_certificate_of_the_earlier_builder_still_verifies(capsys, name, surface, curve, n,
                                                              flavor, digest):
    path = _EARLIER / name
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    earlier = parse_certificate(data.decode())
    assert verify_certificate(earlier).ok
    code, out, _ = invoke(capsys, "verify-cert", str(path))
    assert code == 0 and out.endswith("ok: claim, script, homology and membership verified\n")
    # the builder now writes another script for the same claim
    cert = build_certificate(SurfaceSpec.parse(surface), CurveClass.parse(curve), n, flavor)
    assert format_certificate(cert).encode() != data
    assert cert.script != earlier.script and replace(earlier, script=cert.script) == cert


def test_certify_output_is_deterministic(capsys):
    args = ("certify", "--surface", "o:3", "--curve", "nonsep", "--flavor", "extended",
            "--n", "2")
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_certify_n_range_is_ordered(capsys):
    code, out, _ = invoke(capsys, "certify", "--surface", "o:3", "--curve", "nonsep",
                          "--flavor", "extended", "--n-range=-1..1")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("n: ")]
    assert rows == ["n: -1", "n: 0", "n: 1"]


def test_certify_empty_n_range_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, "certify", "--surface", "o:3", "--curve", "nonsep",
                            "--flavor", "extended", "--n-range=5..3")
    assert code == 2 and out == ""
    assert "'5..3' is empty" in err
    # so is a range that does not parse
    code, out, err = invoke(capsys, "certify", "--surface", "o:3", "--curve", "nonsep",
                            "--flavor", "extended", "--n-range=a..3")
    assert code == 2 and out == ""
    assert err == "error: cannot parse range 'a..3'; expected a..b\n"


def test_certify_respects_the_script_limit(capsys):
    code, _, err = invoke(capsys, "certify", "--surface", "o:3", "--curve", "nonsep",
                          "--flavor", "extended", "--n", "40")
    assert code == 2 and "--max-n" in err
    code, out, _ = invoke(capsys, "certify", "--surface", "o:3", "--curve", "nonsep",
                          "--flavor", "extended", "--n", "40", "--max-n", "40")
    assert code == 0


def test_a_negative_script_limit_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, "certify", "--flavor", "extended", "--surface", "o:3",
                            "--curve", "nonsep", "--n", "0", "--max-n", "-1")
    assert code == 2 and out == ""
    assert err == "error: --max-n must be nonnegative, got -1\n"


def test_certify_takes_no_reflection_determinant(capsys):
    code, out, err = invoke(capsys, "certify", "--flavor", "twist", "--surface", "n:8",
                            "--curve", "sep:n2+n6", "--n", "2", "--r-det", "1")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --r-det 1" in err


@pytest.mark.parametrize("r_det", [1, -1])
def test_a_recorded_reflection_determinant_fails_verification(tmp_path, capsys, r_det):
    path = tmp_path / "cert.txt"
    path.write_text(recorded_determinant_text(r_det))
    code, out, err = invoke(capsys, "verify-cert", str(path))
    assert code == 2 and out == ""
    assert err == f"error: certificate {RECORDED_DETERMINANT_REFUSALS[r_det]}\n"


def test_a_huge_n_range_is_refused_before_it_is_expanded(capsys):
    # the endpoints are checked first: no list of 10^12 exponents is built
    code, out, err = invoke(capsys, "certify", "--surface", "o:3", "--curve", "nonsep",
                            "--flavor", "extended", "--n-range=0..1000000000000")
    assert code == 2 and out == ""
    assert "|n| = 33 exceeds the script limit 32; raise --max-n" in err
    code, out, err = invoke(capsys, "certify", "--surface", "o:3", "--curve", "nonsep",
                            "--flavor", "extended", "--n-range=-1000000000000..0")
    assert code == 2 and out == ""
    assert "|n| = 1000000000000 exceeds the script limit 32" in err


def test_unknown_flag_is_rejected(capsys):
    code, _, _ = invoke(capsys, "det", "--word", "b", "--genus", "6", "--bogus", "1")
    assert code == 2


def test_malformed_word_never_raises(capsys):
    code, _, err = invoke(capsys, "rep-check", "--word", "( b")
    assert code == 2 and "error" in err


_DEEP_WORD = "( " * 3000 + "b" + " )^1" * 3000


def test_a_word_nested_too_deeply_is_refused_at_its_line(tmp_path, capsys):
    script = tmp_path / "deep.proof"
    script.write_text(f"start: {_DEEP_WORD}\nend: b\n")
    code, out, err = invoke(capsys, "verify-script", str(script))
    assert (code, out, err) == (2, "", "error: line 1: groups are nested too deeply\n")
    code, out, err = invoke(capsys, "rep-check", "--word", _DEEP_WORD)
    assert (code, out, err) == (2, "", "error: groups are nested too deeply\n")
    cert = build_certificate(SurfaceSpec(True, 3), CurveClass.parse("nonsep"), 1, "extended-group")
    path = tmp_path / "deep.txt"
    path.write_text(format_certificate(cert).replace(f"\nx: {cert.x}\n", f"\nx: {_DEEP_WORD}\n"))
    code, out, err = invoke(capsys, "verify-cert", str(path))
    assert (code, out) == (2, "")
    assert err == "error: certificate line 15: x: groups are nested too deeply\n"


def test_tampered_certificate_fails_verification(tmp_path, capsys):
    cert = build_certificate(SurfaceSpec(False, 6),
                             CurveClass.parse("nonsep:oc"), 2, "twist-subgroup")
    text = format_certificate(cert)
    tampered = text.replace("y: a1^-1 r", "y: a1^-1 r h")
    path = tmp_path / "tampered.txt"
    path.write_text(tampered)
    code, out, _ = invoke(capsys, "verify-cert", str(path))
    assert code == 1 and "FAIL" in out


def test_certificate_using_h_rules_without_h_fails_verification(tmp_path, capsys):
    cert = build_certificate(SurfaceSpec(True, 3), CurveClass.parse("nonsep"), 2, "extended-group")
    pres = torus_presentation(with_h=True)
    # insert h h^-1, move h^-1 past b and back, cancel it: the script still replays
    detour = (ProofStep(pres.rule("FREE_RED", ("h",)), Direction.RL, 0),
              ProofStep(pres.rule("COMMUTE_H", ("b",)), Direction.LR, 1),
              ProofStep(pres.rule("COMMUTE_H", ("b",)), Direction.RL, 1),
              ProofStep(pres.rule("FREE_RED", ("h",)), Direction.LR, 0))
    bad = replace(cert, script=replace(cert.script, steps=detour + cert.script.steps))
    path = tmp_path / "detour.txt"
    path.write_text(format_certificate(bad))
    code, out, _ = invoke(capsys, "verify-cert", str(path))
    assert code == 1 and "step 1 uses FREE_RED(h)" in out


def test_even_power_certificate_using_torus_rules_fails_verification(tmp_path, capsys):
    # the same failure as a torus flavour's, not a parse error
    cert = build_certificate(SurfaceSpec(False, 7), CurveClass.parse("nonsep:nc"),
                             2, "even-power-twist")
    free_b = torus_presentation().rule("FREE_RED", ("b",))
    detour = (ProofStep(free_b, Direction.RL, 0), ProofStep(free_b, Direction.LR, 0))
    bad = replace(cert, script=replace(cert.script, steps=detour + cert.script.steps))
    path = tmp_path / "detour.txt"
    path.write_text(format_certificate(bad))
    code, out, _ = invoke(capsys, "verify-cert", str(path))
    assert code == 1 and "step 1 uses FREE_RED(b)" in out


def test_oversized_group_power_in_a_certificate_is_a_usage_error(tmp_path, capsys):
    cert = build_certificate(SurfaceSpec(True, 3), CurveClass.parse("nonsep"), 1, "extended-group")
    text = format_certificate(cert).replace(f"x: {cert.x}", "x: ( b )^1000000000")
    path = tmp_path / "huge.txt"
    path.write_text(text)
    code, _, err = invoke(capsys, "verify-cert", str(path))
    assert code == 2 and "past" in err


def test_repeated_certificate_field_is_a_syntax_error(tmp_path, capsys):
    cert = build_certificate(SurfaceSpec(True, 3), CurveClass.parse("nonsep"), 2, "extended-group")
    text = format_certificate(cert).replace("n: 2\n", "n: 2\nn: 3\n", 1)
    with pytest.raises(CertificateSyntaxError, match="line 14: expected 'target: ', found 'n: '"):
        parse_certificate(text)
    path = tmp_path / "twice.txt"
    path.write_text(text)
    code, out, err = invoke(capsys, "verify-cert", str(path))
    assert code == 2 and out == ""
    assert "line 14: expected 'target: ', found 'n: '" in err


def _certificate_text(surface, curve, n, flavor):
    return format_certificate(build_certificate(SurfaceSpec.parse(surface),
                                                CurveClass.parse(curve), n, flavor))


_EXTENDED = ("o:3", "nonsep", 3, "extended-group")
_TWIST_OC = ("n:10", "nonsep:oc", 2, "twist-subgroup")


def _swap_x_and_y(text):
    lines = text.split("\n")
    lines[14], lines[15] = lines[15], lines[14]
    return "\n".join(lines)


@pytest.mark.parametrize("source, edit, message", [
    (_EXTENDED, lambda text: text.replace("n: 3\n", "n: +3\n"),
     "line 13: expected 'n: 3', found 'n: +3'"),
    (_EXTENDED, lambda text: text.replace("forced-rh: no\n", "forced-rh: o:0\n"),
     "line 11: expected 'forced-rh: no', found 'forced-rh: o:0'"),
    (_TWIST_OC, lambda text: text.replace("membership-y: +1\n", "membership-y: 1\n"),
     "line 20: expected 'membership-y: +1', found 'membership-y: 1'"),
    (_EXTENDED, lambda text: text.replace("membership-note: -\n", ""),
     "line 21: expected 'membership-note: ', found 'script:'"),
    (_EXTENDED, lambda text: text.replace(
        "\nscript:\n", "\n  step 73: CENTRAL(c3,b) LR @ 38\nscript:\n"),
     "line 22: expected 'script:', found '  step 73: '"),
    (_EXTENDED, _swap_x_and_y, "line 15: expected 'x: ', found 'y: '"),
    (_EXTENDED, lambda text: text.replace("\nscript:\n", "\nscript: \n"),
     "line 22: expected 'script:', found 'script: '"),
], ids=["signed-n", "forced-rh-o:0", "unsigned-membership-y", "dropped-membership-note",
        "indented-step-line", "swapped-x-and-y", "no-script-line"])
def test_a_respelled_header_is_refused_at_its_line(tmp_path, capsys, source, edit, message):
    text = _certificate_text(*source)
    bad = edit(text)
    assert bad != text
    with pytest.raises(CertificateSyntaxError) as exc:
        parse_certificate(bad)
    assert str(exc.value) == f"certificate {message}"
    path = tmp_path / "respelled.txt"
    path.write_text(bad)
    code, out, err = invoke(capsys, "verify-cert", str(path))
    assert code == 2 and out == "" and err == f"error: certificate {message}\n"


def _edit_line(text, number, edit):
    lines = text.split("\n")
    lines[number - 1] = edit(lines[number - 1])
    return "\n".join(lines)


_ONE_STEP = ("o:3", "nonsep", 1, "extended-group")  # line 26 is "  step 3: ..."


@pytest.mark.parametrize("source, number, edit, message", [
    (_ONE_STEP, 26, lambda line: "  step 3 garbage", "line 26: cannot parse '  step 3 garbage'"),
    (_ONE_STEP, 26, lambda line: line.replace("FREE_RED(r)", "BOGUS()"),
     "line 26: BOGUS() is not in presentation 'every-rule'"),
    (_ONE_STEP, 26, lambda line: line.removeprefix("  step 3: "),
     "line 26: cannot parse 'FREE_RED(r) RL @ 13'"),
    (_ONE_STEP, 26, lambda line: line.removesuffix("13"),
     "line 26: cannot parse '  step 3: FREE_RED(r) RL @ '"),
    (_ONE_STEP, 23, lambda line: line.replace("start: b ", "start: zz "),
     "line 23: unknown generator 'zz'"),
    (_ONE_STEP, 7, lambda line: "genus-bound: x",
     "line 7: expected 'genus-bound: 3', found 'genus-bound: x'"),
    (_EXTENDED, 13, lambda line: "n: three",
     "line 13: n: invalid literal for int() with base 10: 'three'"),
    (_TWIST_OC, 3, lambda line: "surface: q:10",
     "line 3: surface: cannot parse surface spec 'q:10'; expected o:<g> or n:<g>"),
    (_TWIST_OC, 19, lambda line: "membership-x: yes",
     "line 19: expected 'membership-x: +1', found 'membership-x: yes'"),
    # a curve not in its classified spelling, or a request with no case
    (("n:7", "sep:n2+n5", 1, "extended-group"), 4, lambda line: "curve: sep:n5+n2",
     "line 4: expected 'curve: sep:n2+n5', found 'curve: sep:n5+n2'"),
    (("n:7", "nonsep:nc", 1, "extended-group"), 4, lambda line: "curve: nonsep",
     "line 4: expected 'curve: nonsep:nc', found 'curve: nonsep'"),
    (_EXTENDED, 2, lambda line: "flavor: bogus",
     "line 2: case selection rejects this request: unknown certificate flavor 'bogus'"),
    (_TWIST_OC, 3, lambda line: "surface: o:7", "line 3: case selection rejects this request: "
     "twist-subgroup certificates live on nonorientable surfaces"),
], ids=["garbled-step", "unknown-rule", "unlabelled-step", "no-position", "unknown-generator",
        "genus-bound", "n", "surface", "membership-x", "curve-sides-unsorted",
        "curve-complement-unsaid", "unknown-flavor", "orientable-surface"])
def test_an_unreadable_line_is_named_by_its_certificate_line(tmp_path, capsys, source, number,
                                                             edit, message):
    bad = _edit_line(_certificate_text(*source), number, edit)
    with pytest.raises(CertificateSyntaxError) as exc:
        parse_certificate(bad)
    assert str(exc.value) == f"certificate {message}"
    path = tmp_path / "unreadable.txt"
    path.write_text(bad)
    code, out, err = invoke(capsys, "verify-cert", str(path))
    assert code == 2 and out == "" and err == f"error: certificate {message}\n"


_HOMOLOGY_FAIL = "line 18: expected 'homology-check: pass', found 'homology-check: fail'"


def _forged_homology(text):
    return text.replace("homology-check: pass\n", "homology-check: fail\n")


def test_a_forged_header_is_refused_before_the_script_is_read(monkeypatch):
    """The header is compared with ``_header`` first: a header-refused
    text costs no script parse."""
    def unread(*args, **kwargs):
        raise AssertionError("the script was read")

    monkeypatch.setattr(cli, "parse_script", unread)
    with pytest.raises(CertificateSyntaxError) as exc:
        parse_certificate(_forged_homology(_certificate_text(*_ONE_STEP)))
    assert str(exc.value) == f"certificate {_HOMOLOGY_FAIL}"


def test_a_text_with_two_edits_is_refused_at_its_first_differing_line(tmp_path, capsys):
    bad = _edit_line(_forged_homology(_certificate_text(*_ONE_STEP)), 26,
                     lambda line: "  step 3 garbage")
    with pytest.raises(CertificateSyntaxError) as exc:
        parse_certificate(bad)
    assert str(exc.value) == f"certificate {_HOMOLOGY_FAIL}"
    path = tmp_path / "two-edits.txt"
    path.write_text(bad)
    code, out, err = invoke(capsys, "verify-cert", str(path))
    assert code == 2 and out == "" and err == f"error: certificate {_HOMOLOGY_FAIL}\n"


@pytest.mark.parametrize("separator",["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"])
def test_only_a_line_feed_ends_a_script_line(tmp_path, capsys, separator):
    """A character that ``str.splitlines`` also breaks at does not end a
    line: the line it ends is named whole, not the line after it."""
    bad = _edit_line(_certificate_text(*_ONE_STEP), 30, lambda line: line + separator)
    line = "  step 7: CONJ_REFLECT(c2) LR @ 8" + separator
    message = f"certificate line 30: cannot parse {line!r}"
    with pytest.raises(CertificateSyntaxError) as exc:
        parse_certificate(bad)
    assert str(exc.value) == message
    path = tmp_path / "unreadable.txt"
    path.write_text(bad, encoding="utf-8")
    code, out, err = invoke(capsys, "verify-cert", str(path))
    assert code == 2 and out == "" and err == f"error: {message}\n"


def _join_line_26_by_a_lone_cr(text):
    lines = text.split("\n")
    lines[25] += "\r" + lines.pop(26)
    return "\n".join(lines)


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("\n", "\r\n"),
     "line 1: expected 'twistcert-certificate: 1', found 'twistcert-certificate: 1\\r'"),
    (lambda text: _edit_line(text, 26, lambda line: line + "\r"),
     "line 26: cannot parse '  step 3: FREE_RED(r) RL @ 13\\r'"),
    (_join_line_26_by_a_lone_cr,
     "line 26: cannot parse '  step 3: FREE_RED(r) RL @ 13\\r  step 4: FREE_RED(r) RL @ 12'"),
], ids=["every-line", "one-line", "lone-cr"])
def test_a_certificate_file_with_cr_line_ends_is_refused(tmp_path, capsys, edit, message):
    """verify-cert reads a file's exact text: a \\r, which
    format_certificate never writes, is not read as a line end."""
    bad = edit(_certificate_text(*_ONE_STEP))
    with pytest.raises(CertificateSyntaxError) as exc:
        parse_certificate(bad)
    assert str(exc.value) == f"certificate {message}"
    path = tmp_path / "crlf.txt"
    path.write_bytes(bad.encode())
    code, out, err = invoke(capsys, "verify-cert", str(path))
    assert code == 2 and out == "" and err == f"error: certificate {message}\n"


def test_a_script_file_with_crlf_endings_is_refused(tmp_path, capsys):
    """verify-script reads a file's exact text, as verify-cert does."""
    crlf = fixture_path("chain_a.proof").read_text().replace("\n", "\r\n")
    message = "line 1: expected 'start: c1 c2 c3', found 'start: c1 c2 c3\\r'"
    with pytest.raises(ScriptSyntaxError) as exc:
        parse_script(crlf, every_rule())
    assert str(exc.value) == message
    path = tmp_path / "crlf.proof"
    path.write_bytes(crlf.encode())
    code, out, err = invoke(capsys, "verify-script", str(path))
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_a_section_cut_to_its_start_and_end_fails_verification(tmp_path, capsys):
    """Zero steps from [x, y] to [x, y] replay, but do not reach the target."""
    head, _, section = _certificate_text(*_ONE_STEP).partition("\nscript:\n")
    start = section.split("\n")[0]
    assert start.startswith("  start: ")
    path = tmp_path / "cut.txt"
    path.write_text(f"{head}\nscript:\n{start}\n  end: {start[len('  start: '):]}\n")
    code, out, err = invoke(capsys, "verify-cert", str(path))
    assert code == 1 and err == "" and "script steps: 0\n" in out
    assert out.endswith("\nFAIL: script end is not the target word\n")


_STEP_3 = "step 3: FREE_RED(r) RL @ 13"


@pytest.mark.parametrize("number, edit, message", [
    (26, lambda line: " " + line,
     f"line 26: expected '  {_STEP_3}', found '   {_STEP_3}'"),
    (28, lambda line: line.replace("step 5:", "step 05:"),
     "line 28: expected '  step 5: FREE_RED(r) RL @ 11', found '  step 05: FREE_RED(r) RL @ 11'"),
    (45, lambda line: line.replace("@ 7", "@ 07"),
     "line 45: expected '  step 22: FREE_RED(a1^-1) LR @ 7', "
     "found '  step 22: FREE_RED(a1^-1) LR @ 07'"),
    (26, lambda line: line + "  # comment", f"line 26: cannot parse '  {_STEP_3}  # comment'"),
    (26, lambda line: line + "\n", "line 27: cannot parse ''"),
    (70, lambda line: line.replace("end: c1", "end: ( c1 )^1"),
     "line 70: expected '  end: c1', found '  end: ( c1 )^1'"),
    (71, lambda line: "  # the end",
     "line 71: expected the end of the text, found '  # the end'"),
    (71, lambda line: "\n", "line 71: expected the end of the text, found ''"),
], ids=["three-space-indent", "step-05", "position-07", "trailing-comment", "blank-line",
        "grouped-end-word", "comment-after-the-end", "blank-line-after-the-end"])
def test_a_respelled_script_section_is_refused_at_its_line(tmp_path, capsys, number, edit,
                                                           message):
    """The script section has one spelling, as a script file has: the
    same respelling of a script file is refused at the same line."""
    text = _certificate_text(*_ONE_STEP)
    bad = _edit_line(text, number, edit)
    assert bad != text
    with pytest.raises(CertificateSyntaxError) as exc:
        parse_certificate(bad)
    assert str(exc.value) == f"certificate {message}"
    path = tmp_path / "respelled.txt"
    path.write_text(bad)
    code, out, err = invoke(capsys, "verify-cert", str(path))
    assert code == 2 and out == "" and err == f"error: certificate {message}\n"

    # line 23 of the certificate is line 1 of its script
    script_text = format_script(parse_certificate(text).script)
    path = tmp_path / "respelled.proof"
    path.write_text(_edit_line(script_text, number - 22, edit))
    code, out, err = invoke(capsys, "verify-script", str(path))
    named = int(message.split(":")[0].removeprefix("line "))
    assert code == 2 and out == "" and err.startswith(f"error: line {named - 22}: ")


def test_an_unknown_rule_in_a_script_file_is_named_by_its_line(tmp_path, capsys):
    path = tmp_path / "bogus.proof"
    path.write_text("start: b\nstep 1: BOGUS() LR @ 0\nend: b\n")
    code, out, err = invoke(capsys, "verify-script", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 2: BOGUS() is not in presentation 'torus+h'\n"
    # a comment line is not script text
    path.write_text("# one comment line\nstart: b\nstep 1: BOGUS() LR @ 0\nend: b\n")
    code, out, err = invoke(capsys, "verify-script", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 1: cannot parse '# one comment line'\n"


def test_edited_certificates_verify_only_with_their_own_header():
    """A seeded fuzz: 3,000 texts, each with 1-3 lines deleted, duplicated
    or with one character replaced.  A text that parses is the text of
    the certificate it parsed to, and a text that verifies has its
    source's header, byte for byte."""
    import random
    import time

    from twistcert import verify_certificate
    from twistcert.cli import _header

    sources = [_certificate_text(*source) for source in (
        _EXTENDED, ("n:8", "sep:n2+n6", 2, "twist-subgroup"),
        ("n:9", "nonsep", 2, "even-power-twist"), _TWIST_OC)]
    rng = random.Random(0x6D1F)
    accepted = 0
    for trial in range(3000):
        source = sources[trial % len(sources)]
        lines = source.split("\n")[:-1]
        for _ in range(rng.randint(1, 3)):
            i, op = rng.randrange(len(lines)), rng.randrange(3)
            if op == 0:
                del lines[i]
            elif op == 1:
                lines.insert(i, lines[i])
            else:
                pos = rng.randrange(len(lines[i]) + 1)
                lines[i] = lines[i][:pos] + rng.choice("xyz019+-: @(^") + lines[i][pos + 1:]
        text = "\n".join(lines) + "\n"
        start = time.perf_counter()
        try:
            cert = parse_certificate(text)
        except (ValueError, KeyError):  # exit 2
            pass
        else:
            assert text == format_certificate(cert), trial
            head = text.partition("\nscript:\n")[0]
            assert head == "\n".join(_header(cert)), trial
            if verify_certificate(cert).ok:
                accepted += 1
                assert head == source.partition("\nscript:\n")[0], trial
        assert time.perf_counter() - start < 1.0, trial
    assert accepted > 0  # edits that change no byte, such as a character replaced by itself


def _assert_read_as_a_script_file(text):
    """The certificate's script is the one ``parse_script`` reads from its
    section, and from the section dedented, as a script file."""
    section = text.partition("\nscript:\n")[2]
    script = parse_certificate(text).script
    assert script == parse_script(section, every_rule(), indent="  ")
    assert script == parse_script(textwrap.dedent(section), every_rule())


def test_every_sweep_certificate_round_trips():
    """format(parse(text)) == text for every certificate of the benchmark's
    sweep domain, at a seeded n in -2..2 for each request, and its script
    is the one ``parse_script`` reads."""
    import random

    from twistcert import OutOfScope, Unrealizable
    from twistcert.certificates import CERTIFICATE_FLAVORS

    rng = random.Random(7)
    count = 0
    for kind, top in (("o", 8), ("n", 24)):
        for genus in range(1, top + 1):
            for curve in _sweep_curve_spellings(kind == "o", genus):
                for flavor in CERTIFICATE_FLAVORS:
                    n = rng.randint(-2, 2)
                    try:
                        text = _certificate_text(f"{kind}:{genus}", curve, n, flavor)
                    except (OutOfScope, Unrealizable):
                        continue
                    assert format_certificate(parse_certificate(text)) == text, (
                        kind, genus, curve, flavor, n)
                    _assert_read_as_a_script_file(text)
                    count += 1
    assert count == 1153


@pytest.mark.parametrize("source", [
    ("o:3", "nonsep", 32, "extended-group"),
    ("o:3", "nonsep", 64, "extended-group"),
    ("n:8", "nonsep:nc", -64, "twist-subgroup"),
], ids=["o:3-n32", "o:3-n64", "n:8-nonsep:nc-n-64"])
def test_large_certificates_are_read_as_script_files_read_them(source):
    text = _certificate_text(*source)
    assert format_certificate(parse_certificate(text)) == text
    _assert_read_as_a_script_file(text)


def test_a_certificate_script_is_read_in_place():
    """Traced allocations at n = 64: parse_certificate peaks less than a
    fifth of the text's length above parse_script reading the script
    section alone, so no copy of the section is made."""
    import tracemalloc

    text = _certificate_text("o:3", "nonsep", 64, "extended-group")
    section = text[text.index("\nscript:\n") + 9:]
    parse_certificate(text)  # the rule tables are made once, untraced
    peaks = []
    tracemalloc.start()
    try:
        for read in (lambda: parse_certificate(text),
                     lambda: parse_script(section, every_rule(), indent="  ")):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            read()
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert peaks[0] - peaks[1] < 0.2 * len(text), [peak / len(text) for peak in peaks]


def test_certificate_format_round_trip():
    cert = build_certificate(SurfaceSpec(False, 7),
                             CurveClass.parse("sep:n2+n5"), -2, "twist-subgroup")
    parsed = parse_certificate(format_certificate(cert))
    assert parsed == cert


def test_mutated_input_files_never_crash_the_cli(tmp_path, capsys):
    """Deleting, duplicating or corrupting lines must give exit 1 or 2.
    A script file has one grammar: it replays (exit 0 or 1) only if it is
    the text ``format_script`` writes for the script it reads, and is
    otherwise refused (exit 2) at one of its lines."""
    import random

    cert = build_certificate(SurfaceSpec(False, 6),
                             CurveClass.parse("nonsep:oc"), 2, "twist-subgroup")
    sources = {
        "cert": format_certificate(cert).splitlines(),
        "script": fixture_path("chain_a.proof").read_text().splitlines(),
    }
    rng = random.Random(0xF022)
    for kind, lines in sources.items():
        command = "verify-cert" if kind == "cert" else "verify-script"
        for trial in range(60):
            mutated = list(lines)
            op = rng.randrange(3)
            idx = rng.randrange(len(mutated))
            if op == 0:
                del mutated[idx]
            elif op == 1:
                mutated.insert(idx, mutated[idx])
            else:
                line = mutated[idx]
                if line:
                    pos = rng.randrange(len(line))
                    line = line[:pos] + rng.choice("xyz9@(^") + line[pos + 1:]
                mutated[idx] = line
            path = tmp_path / f"{kind}_{trial}.txt"
            text = "\n".join(mutated) + "\n"
            path.write_text(text)
            code = run([command, str(path)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (kind, trial, code)
            if kind == "script" and code == 2:
                words = err.split(" ")
                assert words[:2] == ["error:", "line"] and words[2].endswith(":"), (trial, err)
                assert 1 <= int(words[2][:-1]) <= len(mutated), (trial, err)
            elif kind == "script":
                script = parse_script(text, torus_presentation(with_h=True))
                assert format_script(script) == text, trial
