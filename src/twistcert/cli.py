"""Command-line front end and the certificate text format.

Exit codes: 0 = verified/ok, 1 = verification failed, 2 = usage or
realizability error: ``run`` prints any ``ValueError`` or ``OSError``
of a subcommand's handler as ``error: <message>``, and a script or
certificate error names its line.  Output is plain text with stable field
ordering; nothing here depends on time, locale or dict-iteration accidents.

A certificate has one text.  ``_header`` writes its 21 header lines: the
request (flavor, surface, curve and n), the claim words (target, x and y),
and 13 lines it renders from the request's case.  ``parse_certificate``
decodes only the request and the claim words, and accepts a header only
if ``_header`` of the certificate it parsed gives back the same bytes.
Only then is the script section read, by ``presentation.parse_script``,
which accepts only the text ``presentation.format_script`` writes with
the indent ``"  "``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

from .certificates import (
    CERTIFICATE_FLAVORS,
    Certificate,
    build_certificate,
    verify_certificate,
)
from .homology import ASSIGNMENTS, det_hom, evaluate_rep
from .presentation import (
    PRESENTATIONS,
    ScriptSyntaxError,
    every_rule,
    format_script,
    parse_script,
    verify_script,
)
from .surfaces import (
    FLAVORS,
    CurveClass,
    OutOfScope,
    SurfaceSpec,
    Unrealizable,
    classify,
    scl_upper_bound,
    select_case,
)
from .words import Word, spelled_word, word

_GRAMMAR_HELP = """\
word grammar:   whitespace-separated tokens; token = name or name^-1 with
                name matching [a-z][a-z0-9]*; '( w )^n' expands the group
                w to its n-th power; empty input is the identity word.

script format:  line 1        start: <word>
                per step      step <k>: <RULE>(<params>) <LR|RL> @ <position>
                last line     end: <word>
                step labels count from 1, as format_script writes them,
                and a certificate indents each line by two spaces; no
                comment, blank line or other spelling is read.
"""


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistcert",
        description="Generate and verify commutator certificates for powers of Dehn twists.",
        epilog=_GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-script", help="replay a proof script file")
    p.set_defaults(handler=_cmd_verify_script)
    p.add_argument("path", type=Path)
    p.add_argument("--rules", choices=list(PRESENTATIONS),
                   default="torus+h", help="rule set to resolve steps against")

    p = sub.add_parser("rep-check", help="evaluate a word in an integer homology assignment")
    p.set_defaults(handler=_cmd_rep_check)
    p.add_argument("--word", required=True)
    p.add_argument("--assignment", choices=sorted(ASSIGNMENTS), default="genus3")

    p = sub.add_parser("det", help="determinant homomorphism and twist-subgroup membership")
    p.set_defaults(handler=_cmd_det)
    p.add_argument("--word", required=True)
    p.add_argument("--genus", type=int, required=True, help="nonorientable genus")
    p.add_argument("--k", type=int, default=None,
                   help="orientable-complement embedding parameter; genus = 2(k+3)")

    p = sub.add_parser("classify", help="normalise a curve class and list applicable cases")
    p.set_defaults(handler=_cmd_classify)
    p.add_argument("--surface", required=True, help="o:<g> or n:<g>")
    p.add_argument("--curve", required=True,
                   help="sep:<side>+<side> (side = o<g>|n<g>), nonsep, nonsep:oc, nonsep:nc")

    p = sub.add_parser("certify", help="build a commutator certificate")
    p.set_defaults(handler=_cmd_certify)
    p.add_argument("--surface", required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--flavor", required=True,
                   choices=sorted(row.option for row in CERTIFICATE_FLAVORS.values()))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--n-range",
                       help="inclusive range a..b; write --n-range=-3..3 for negative bounds")
    p.add_argument("--max-n", type=int, default=32, help="largest |n| a script is generated for")
    p.add_argument("--emit-script", type=Path, default=None,
                   help="also write the proof script to this path")

    p = sub.add_parser("verify-cert", help="re-verify a certificate file")
    p.set_defaults(handler=_cmd_verify_cert)
    p.add_argument("path", type=Path)

    return parser


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the exit code instead of raising."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        if isinstance(exc, OutOfScope):
            kind = "out of scope (conjectural)" if exc.conjectural else "out of scope"
            print(f"error: {kind}: {exc}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_verify_script(args: argparse.Namespace) -> int:
    # the exact text, as verify-cert reads it
    script = parse_script(args.path.read_bytes().decode("utf-8"), PRESENTATIONS[args.rules])
    report = verify_script(script)
    print(f"start: {script.start}")
    print(f"steps: {len(script.steps)}")
    if report.ok:
        print(f"ok: end word reached: {report.final}")
    else:
        print(f"FAIL at step {report.failed_step}: {report.message}")
    return 0 if report.ok else 1


def _cmd_rep_check(args: argparse.Namespace) -> int:
    assignment = ASSIGNMENTS[args.assignment]()
    w = word(args.word)
    matrix = evaluate_rep(w, assignment)
    print(f"assignment: {assignment.assignment_id} (dimension {assignment.space.dim})")
    print(matrix)
    print(f"identity: {'yes' if matrix.is_identity() else 'no'}")
    return 0


def _cmd_det(args: argparse.Namespace) -> int:
    surface = SurfaceSpec(orientable=False, genus=args.genus)
    if args.k is not None and args.genus != 2 * (args.k + 3):
        raise Unrealizable(f"k={args.k} belongs to genus {2 * (args.k + 3)}, not {args.genus}")
    value = det_hom(word(args.word), surface, k=args.k)
    verdict = "in twist subgroup" if value == 1 else "not in twist subgroup"
    print(f"{value:+d} ({verdict})")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    surface = SurfaceSpec.parse(args.surface)
    curve = classify(surface, CurveClass.parse(args.curve))
    print(f"surface: {surface}")
    print(f"curve: {curve}")
    for flavor in FLAVORS:
        try:
            case = select_case(surface, curve, flavor)
        except OutOfScope as exc:
            tag = " (conjectural)" if exc.conjectural else ""
            print(f"{flavor}: out of scope{tag}: {exc}")
            continue
        extra = ""
        if case.theorem == "R4-even-power":
            extra = f", twist variant {'available' if case.twist_admissible else 'unavailable'}"
        bound = scl_upper_bound(case)
        print(f"{flavor}: {case.case_id} (y = {case.y_choice}{extra}); scl upper bound {bound.value}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.max_n < 0:
        raise ValueError(f"--max-n must be nonnegative, got {args.max_n}")
    surface = SurfaceSpec.parse(args.surface)
    curve = CurveClass.parse(args.curve)
    flavor = next(name for name, row in CERTIFICATE_FLAVORS.items()
                  if row.option == args.flavor)
    if args.n_range is not None:
        lo_text, _, hi_text = args.n_range.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise Unrealizable(f"cannot parse range {args.n_range!r}; expected a..b") from None
        if lo > hi:
            raise Unrealizable(f"range {args.n_range!r} is empty; expected a..b with a <= b")
    else:
        lo = hi = args.n
    # check the endpoints before anything is built; name the first n past the limit
    if lo < -args.max_n or hi > args.max_n:
        n = lo if abs(lo) > args.max_n else args.max_n + 1
        raise Unrealizable(f"|n| = {abs(n)} exceeds the script limit {args.max_n}; "
                           "raise --max-n to force generation")
    for n in range(lo, hi + 1):
        cert = build_certificate(surface, curve, n, flavor)
        if n != lo:
            print()
        print(format_certificate(cert), end="")
        if args.emit_script is not None:
            path = args.emit_script if lo == hi else args.emit_script.with_name(
                f"{args.emit_script.stem}_n{n}{args.emit_script.suffix}")
            path.write_text(format_script(cert.script))
    return 0


def _cmd_verify_cert(args: argparse.Namespace) -> int:
    # the exact text: universal newlines would turn \r\n into \n before
    # parse_certificate could refuse it
    cert = parse_certificate(args.path.read_bytes().decode("utf-8"))
    report = verify_certificate(cert)
    print(f"flavor: {cert.flavor}")
    print(f"n: {cert.n}")
    print(f"script steps: {len(cert.script.steps)}")
    print(str(report))
    return 0 if report.ok else 1


# --- certificate text format -------------------------------------------------

#: The header keys, in the one order a certificate writes them.
_KEYS = ("twistcert-certificate", "flavor", "surface", "curve", "theorem", "case",
         "genus-bound", "y-choice", "k", "r-det", "forced-rh", "twist-admissible",
         "n", "target", "x", "y", "assignment", "homology-check",
         "membership-x", "membership-y", "membership-note")
_VERSION_LINE = "twistcert-certificate: 1"  # the first line _header writes


def _opt(value, render=str) -> str:
    return "-" if value is None else render(value)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _header(cert: Certificate) -> list[str]:
    """The header lines of a certificate: one ``key: value`` line for each
    key of ``_KEYS``, each value in its one spelling.  The curve is the
    case's, in its classified spelling; raise ValueError if the request
    has no case."""
    case, member = cert.case, cert.membership
    if member is None:
        membership = ("-", "-", "-")
    else:
        det_y = "conditional" if member.det_y is None else f"{member.det_y:+d}"
        membership = (f"{member.det_x:+d}", det_y, member.note)
    values = (
        1, cert.flavor, cert.surface, case.curve, case.theorem, case.case_id,
        case.genus_bound_used, case.y_choice, _opt(case.k), _opt(case.r_det, "{:+d}".format),
        _yesno(case.forced_rh), _opt(case.twist_admissible, _yesno),
        cert.n, cert.target, cert.x, cert.y, cert.assignment_id,
        "pass" if cert.homology_ok else "fail", *membership,
    )
    return [f"{key}: {value}" for key, value in zip(_KEYS, values, strict=True)]


def format_certificate(cert: Certificate) -> str:
    """Serialise a certificate: the ``_header`` lines, a ``script:`` line,
    and the proof script with each line indented by two spaces."""
    return "\n".join([*_header(cert), "script:", format_script(cert.script, "  ")])


class CertificateSyntaxError(ValueError):
    pass


def _check_lines(found: list[str], expected: list[str]) -> None:
    """Raise for the first line where ``found`` and ``expected`` differ,
    naming its number, the expected text and the text found (None past
    the end of either)."""
    for number, (got, want) in enumerate(zip_longest(found, expected), start=1):
        if got != want:
            raise CertificateSyntaxError(
                f"certificate line {number}: expected {want!r}, found {got!r}")


def parse_certificate(text: str) -> Certificate:
    """Read the one text :func:`format_certificate` writes for a certificate.

    The first line must be ``_VERSION_LINE`` and the other header keys
    must be ``_KEYS`` in order.  The script section is read by
    :func:`parse_script`, which accepts only what :func:`format_script`
    writes with the indent ``"  "`` and names any other text's first line
    that differs by its line in the certificate.  Of the header, only the
    request and the claim words are decoded, and ``_header`` of the
    certificate they make must give back every header line byte for byte,
    before the script is read; otherwise ``CertificateSyntaxError`` names
    the first line that differs, or the flavor or surface line if the
    request has no case.  So a text parses only if it is
    ``format_certificate`` of the certificate it parses to.
    """
    # the script: line closes the header, so a missing or an extra line shows there;
    # the script section is read in place, from the line after it
    cut = text.find("\nscript:\n")
    cut = cut + 8 if cut >= 0 else len(text)
    lines = text[:cut].split("\n")
    keys = [key + colon for key, colon, _ in (line.partition(": ") for line in lines)]
    keys[0] = lines[0]  # read whole, so another version or line end is named at line 1
    _check_lines(keys, [_VERSION_LINE, *(f"{key}: " for key in _KEYS[1:]), "script:"])
    fields = {key: line[len(key) + 2:] for key, line in zip(_KEYS, lines)}

    def field(key: str, decode):
        """The value of ``key``, decoded; a value that does not decode is
        named by its line and key."""
        try:
            return decode(fields[key])
        except ValueError as exc:
            raise CertificateSyntaxError(
                f"certificate line {_KEYS.index(key) + 1}: {key}: {exc}") from None

    def header_word(text: str) -> Word:
        """A word as the header spells it; any other text is read by the
        word grammar, which names what is wrong with it, and a word it
        reads is then refused by the header check."""
        found = spelled_word(text)
        return word(text) if found is None else found

    # _header reads no script, so the header is checked before the script is read
    cert = Certificate(
        flavor=fields["flavor"],
        n=field("n", int),
        surface=field("surface", SurfaceSpec.parse),
        curve=field("curve", CurveClass.parse),
        target=field("target", header_word),
        x=field("x", header_word),
        y=field("y", header_word),
        script=None,
    )
    try:
        header = _header(cert)
    except ValueError as exc:  # an unknown flavor, or no case for this surface and curve
        line = 3 if cert.flavor in CERTIFICATE_FLAVORS else 2
        raise CertificateSyntaxError(
            f"certificate line {line}: case selection rejects this request: {exc}") from None
    _check_lines(lines, [*header, "script:"])
    # which rules the flavour allows is for verify_certificate to decide;
    # the script's lines are numbered as lines of the certificate
    try:
        script = parse_script(text, every_rule(), len(lines) + 1, indent="  ", offset=cut + 1)
    except ScriptSyntaxError as exc:
        raise CertificateSyntaxError(f"certificate {exc}") from None
    return replace(cert, script=script)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
