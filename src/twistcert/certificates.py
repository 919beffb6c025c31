"""Commutator certificates: t^n about the distinguished boundary curve
equals a single commutator, with a replayable proof script and exact
homology and determinant checks attached.

The three builders:

* ``build_theorem1_certificate`` -- extended-group flavour, X = P^n and
  Y = a1^-1 r, where P = b a2 a3 b a1 a2 c2^-1;
* ``build_theorem2_certificate`` -- twist-subgroup flavour, Y picks up the
  commuting complement homeomorphism h when the reflection's determinant
  is -1 (or unrecorded);
* ``build_even_power_certificate`` -- even powers of any twist, X = c^n
  and Y = s with s c s^-1 = c^-1.

All scripts are generated for the concrete exponent: the builder applies
each step as it emits it, so a bad position is a build-time error, never a
silent corruption.  ``build_rel1`` produces the underlying factorisation
c1^n = (P)^n (Q)^n with Q = c3^-1 b a2 a3 b a1 a2; the commutator scripts
replay it backwards after rewriting the conjugated half.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .homology import (
    HomologyAssignment,
    curve_reverser_assignment,
    det_hom,
    evaluate_rep,
    genus3_assignment,
    genus3_with_h_assignment,
)
from .presentation import (
    Direction,
    Presentation,
    ProofScript,
    ProofStep,
    Rule,
    even_power_presentation,
    fixture_path,
    parse_script,
    rewrite,
    torus_presentation,
    verify_script,
)
from .surfaces import CurveClass, OutOfScope, SurfaceSpec, TheoremCase, select_case
from .words import Word, commutator, concat, invert, power, word

P_WORD = word("b a2 a3 b a1 a2 c2^-1")
Q_WORD = word("c3^-1 b a2 a3 b a1 a2")
C1 = word("c1")
_C = word("c")
_S = word("s")
_CENTRAL_NAMES = ("c1", "c2", "c3")

LocalStep = tuple[str, tuple[str, ...], Direction, int]


def mirror_local_steps(steps: Iterable[LocalStep], window_len: int) -> tuple[LocalStep, ...]:
    """Steps proving u -> v, transformed to prove u^-1 -> v^-1.

    Inverting a word reverses it and flips every sign, so a step at
    position p on a length-L word lands at L - p - len(pattern), and it
    must rewrite each inverted segment into the inverted replacement: the
    mirrored step takes the direction of the same rule that does so.
    """
    out: list[LocalStep] = []
    length = window_len
    for family, params, direction, pos in steps:
        rule = Rule(family, params)
        rewrites = rule.rewrites(direction).items()
        mirrored = next((d for d in (direction, direction.flipped())
                         if all(rule.rewrites(d).get(_inverse(seg)) == _inverse(repl)
                                for seg, repl in rewrites)), None)
        if mirrored is None:
            raise ValueError(f"{rule.render()} {direction.value} steps cannot be mirrored")
        seg, repl = next(iter(rewrites))
        out.append((family, params, mirrored, length - pos - len(seg)))
        length += len(repl) - len(seg)
    return tuple(out)


def _inverse(letters):
    return tuple(lt.inverse() for lt in reversed(letters))


def _local_steps(steps: Iterable[ProofStep]) -> tuple[LocalStep, ...]:
    return tuple((s.rule.family, s.rule.params, s.direction, s.position) for s in steps)


# The two derivation chains ship as proof-script fixtures, their only source.
_CHAIN_A = parse_script(fixture_path("chain_a.proof").read_text(), torus_presentation())
_CHAIN_B = parse_script(fixture_path("chain_b.proof").read_text(), torus_presentation())

# the star expansion (b a1 a2 a3)^3 rewritten to the squared word
# (b a2 a3 b a1 a2)^2, on a 12-letter window: chain A after its STAR step
CHAIN_A_TAIL = _local_steps(_CHAIN_A.steps[1:])
# c3^-1 a3 a1 b a2 a3 b rewritten to a1 (c3^-1 b a2 a3 b a1 a2) a1^-1,
# on a 7-letter window (grows to 9)
CHAIN_B_STEPS = _local_steps(_CHAIN_B.steps)

CHAIN_A_TAIL_MIRROR = mirror_local_steps(CHAIN_A_TAIL, len(_CHAIN_A.end))
CHAIN_B_MIRROR = mirror_local_steps(CHAIN_B_STEPS, len(_CHAIN_B.start))


class ScriptBuilder:
    """Accumulates proof steps while applying them to a live word, so every
    emitted position is checked against the actual current word.  The word
    is one list of letters that each step rewrites in place; a step that
    does not fit raises and leaves it unchanged."""

    def __init__(self, start: Word, presentation: Presentation):
        self.presentation = presentation
        self.start = start
        self.letters = list(start.letters)
        self._steps: list[ProofStep] = []

    def word(self) -> Word:
        return Word(tuple(self.letters))

    def apply(self, family: str, params: tuple[str, ...], direction: Direction,
              position: int) -> None:
        step = ProofStep(self.presentation.rule(family, params), direction, position)
        rewrite(self.letters, step)
        self._steps.append(step)

    def apply_local(self, steps: Iterable[LocalStep], offset: int = 0) -> None:
        for family, params, direction, pos in steps:
            self.apply(family, params, direction, pos + offset)

    def apply_steps(self, steps: Iterable[ProofStep]) -> None:
        for step in steps:
            rewrite(self.letters, step)
            self._steps.append(step)

    def finish(self, end: Word) -> ProofScript:
        if self.word() != end:
            raise AssertionError(
                f"script builder ended at {self.word()}, expected {end}")
        return ProofScript(self.start, tuple(self._steps), end)


def _is_central(lt) -> bool:
    return lt.name in _CENTRAL_NAMES


def _central_rearrange(builder: ScriptBuilder, target: Sequence) -> None:
    """Permute the current word into ``target`` by bubbling boundary-twist
    letters with CENTRAL swaps.  The two words must agree as multisets and
    on the relative order of their non-central letters."""
    target = list(target)
    if sorted(builder.letters) != sorted(target):
        raise AssertionError("rearrangement target is not a permutation of the word")
    for i, want in enumerate(target):
        if builder.letters[i] == want:
            continue
        j = builder.letters.index(want, i + 1)
        for jj in range(j, i, -1):
            left, mover = builder.letters[jj - 1], builder.letters[jj]
            if _is_central(mover):
                if left.name == mover.name:
                    raise AssertionError("cannot swap a central letter past itself")
                builder.apply("CENTRAL", (mover.name, left.name), Direction.RL, jj - 1)
            elif _is_central(left):
                builder.apply("CENTRAL", (left.name, mover.name), Direction.LR, jj - 1)
            else:
                raise AssertionError(
                    f"neither {left} nor {mover} is central; cannot rearrange")


@dataclass(frozen=True)
class Rel1:
    """The factorisation c1^n = P^n Q^n with its derivation script."""

    n: int
    lhs: Word
    rhs: Word
    script: ProofScript


def build_rel1(n: int) -> Rel1:
    """Derive c1^n = (b a2 a3 b a1 a2 c2^-1)^n (c3^-1 b a2 a3 b a1 a2)^n.

    Each c1 letter is expanded through the star relation into the squared
    word with its two boundary twists split off; one final pass of central
    moves sorts the boundary letters into the product-of-powers shape.
    """
    lhs = power(C1, n)
    rhs = concat(power(P_WORD, n), power(Q_WORD, n))
    builder = ScriptBuilder(lhs, torus_presentation())
    for i in range(abs(n)):
        p = 14 * i
        if n > 0:
            builder.apply("FREE_RED", ("c2",), Direction.RL, p + 1)
            builder.apply("FREE_RED", ("c3",), Direction.RL, p + 2)
            builder.apply("STAR", (), Direction.LR, p)
            builder.apply_local(CHAIN_A_TAIL, offset=p)
        else:
            builder.apply("FREE_RED", ("c2^-1",), Direction.RL, p)
            builder.apply("CENTRAL", ("c2", "c1"), Direction.LR, p + 1)
            builder.apply("FREE_RED", ("c3^-1",), Direction.RL, p)
            builder.apply("CENTRAL", ("c3", "c2"), Direction.LR, p + 1)
            builder.apply("CENTRAL", ("c3", "c1"), Direction.LR, p + 2)
            builder.apply("STAR", (), Direction.LR, p)
            builder.apply_local(CHAIN_A_TAIL_MIRROR, offset=p)
    _central_rearrange(builder, rhs.letters)
    return Rel1(n, lhs, rhs, builder.finish(rhs))


@dataclass(frozen=True)
class MembershipRecord:
    """Determinant values of the two commutator entries; det +1 decides
    membership in the twist subgroup."""

    det_x: int
    det_y: int | None
    conditional: bool
    note: str

    @property
    def ok(self) -> bool:
        return self.det_x == 1 and (self.det_y == 1 or self.conditional)


@dataclass(frozen=True)
class Certificate:
    flavor: str  # extended-group | twist-subgroup | even-power-extended | even-power-twist
    n: int
    surface: SurfaceSpec
    curve: CurveClass
    case: TheoremCase
    target: Word
    x: Word
    y: Word
    script: ProofScript
    assignment_id: str
    homology_ok: bool
    membership: MembershipRecord | None


_Y_WORDS = {"r": word("a1^-1 r"), "rh": word("a1^-1 r h")}


def _commutator_script(x: Word, y_choice: str, n: int) -> ProofScript:
    """Script from the written commutator [P^n, Y] down to c1^n."""
    y = _Y_WORDS[y_choice]
    start = commutator(x, y)
    target = power(C1, n)
    if n == 0:
        return ProofScript(start, (), target)
    if start.letters != concat(x, y, invert(x), invert(y)).letters:
        raise AssertionError("commutator word unexpectedly reduced")

    m = abs(n)
    with_h = y_choice == "rh"
    builder = ScriptBuilder(start, torus_presentation(with_h=True))

    if with_h:
        # h commutes with every twist letter of X^-1, then cancels into h^-1
        for i in range(7 * m):
            neighbour = builder.letters[7 * m + 3 + i]
            builder.apply("COMMUTE_H", (neighbour.name,), Direction.LR, 7 * m + 2 + i)
        builder.apply("FREE_RED", ("h",), Direction.LR, 14 * m + 2)

    # conjugate X^-1 through the reflection letter by letter
    base = 7 * m + 2
    for gap in range(7 * m - 1, 0, -1):
        builder.apply("FREE_RED", ("r",), Direction.RL, base + gap)
    pos = 7 * m + 1
    for _ in range(7 * m):
        inner = builder.letters[pos + 1]
        builder.apply("CONJ_REFLECT", (inner.name,), Direction.LR, pos)
        pos += 1

    # rewrite each conjugated block into a1 Q^(+-1) a1^-1 and cancel
    chain = CHAIN_B_STEPS if n > 0 else CHAIN_B_MIRROR
    for j in range(m):
        builder.apply_local(chain, offset=7 * m + 1 + 9 * j)
    for j in range(m + 1):
        builder.apply("FREE_RED", ("a1^-1",), Direction.LR, 7 * m + 7 * j)

    # the word is now P^n Q^n; replay the factorisation backwards
    rel = build_rel1(n)
    if builder.word() != rel.rhs:
        raise AssertionError("conjugation phase did not land on the factorised word")
    builder.apply_steps(rel.script.inverted().steps)
    return builder.finish(target)


def _homology_check(script: ProofScript, assignment: HomologyAssignment) -> bool:
    return evaluate_rep(script.start, assignment) == evaluate_rep(script.end, assignment)


def build_theorem1_certificate(surface: SurfaceSpec, curve: CurveClass, n: int) -> Certificate:
    """Extended-group certificate: t^n about the boundary curve is the
    single commutator [P^n, a1^-1 r]."""
    case = select_case(surface, curve, "extended-group")
    x = power(P_WORD, n)
    y = _Y_WORDS["r"]
    script = _commutator_script(x, "r", n)
    assignment = genus3_assignment()
    return Certificate("extended-group", n, surface, case.curve, case,
                       power(C1, n), x, y, script, assignment.assignment_id,
                       _homology_check(script, assignment), None)


def build_theorem2_certificate(surface: SurfaceSpec, curve: CurveClass, n: int,
                               r_det_override: int | None = None) -> Certificate:
    """Twist-subgroup certificate; Y carries h whenever the reflection is
    not known to act with determinant +1."""
    case = select_case(surface, curve, "twist-subgroup", r_det_override)
    x = power(P_WORD, n)
    y = _Y_WORDS[case.y_choice]
    script = _commutator_script(x, case.y_choice, n)
    assignment = genus3_with_h_assignment() if case.y_choice == "rh" else genus3_assignment()
    membership = _twist_membership(case, x, y, surface)
    return Certificate("twist-subgroup", n, surface, case.curve, case,
                       power(C1, n), x, y, script, assignment.assignment_id,
                       _homology_check(script, assignment), membership)


def _twist_membership(case: TheoremCase, x: Word, y: Word,
                      surface: SurfaceSpec) -> MembershipRecord:
    det_x = det_hom(x, surface)  # twists only
    if case.forced_rh:
        return MembershipRecord(
            det_x, None, True,
            "reflection determinant unrecorded for this embedding; exactly one "
            "of a1^-1 r and a1^-1 r h lies in the twist subgroup, and the "
            "emitted rh form is the member whenever the reflection is not")
    det_y = det_hom(y, surface, k=case.k, r_det=case.r_det)
    return MembershipRecord(det_x, det_y, False,
                            f"reflection determinant {case.r_det:+d} recorded for the embedding")


def build_even_power_certificate(surface: SurfaceSpec, curve: CurveClass, n: int,
                                 flavor: str = "extended") -> Certificate:
    """Even-power certificate t^(2n) = [t^n, s] for any two-sided curve;
    the twist flavour needs a nonorientable complement piece of genus >= 2
    so that s can be chosen inside the twist subgroup."""
    if flavor not in ("extended", "twist"):
        raise ValueError(f"unknown even-power flavor {flavor!r}")
    case = select_case(surface, curve, "even-power")
    if flavor == "twist" and not case.twist_admissible:
        raise OutOfScope("the complement has no nonorientable piece of genus >= 2, "
                         "so no curve-reversing map exists in the twist subgroup")
    x = power(_C, n)
    y = _S
    target = power(_C, 2 * n)
    start = commutator(x, y)
    builder = ScriptBuilder(start, even_power_presentation())
    m = abs(n)
    if m:
        for gap in range(m - 1, 0, -1):
            builder.apply("FREE_RED", ("s^-1",), Direction.RL, m + 1 + gap)
        pos = m
        for _ in range(m):
            builder.apply("REVERSE_S", ("c",), Direction.LR, pos)
            pos += 1
    script = builder.finish(target)
    assignment = curve_reverser_assignment()
    membership = None
    if flavor == "twist":
        membership = MembershipRecord(
            1, 1, False,
            "x is a twist power; s is chosen in the twist subgroup by composing "
            "with a crosscap slide in the nonorientable complement piece")
    return Certificate(f"even-power-{flavor}", n, surface, case.curve, case,
                       target, x, y, script, assignment.assignment_id,
                       _homology_check(script, assignment), membership)


def build_certificate(surface: SurfaceSpec, curve: CurveClass, n: int,
                      flavor: str, r_det_override: int | None = None) -> Certificate:
    """Dispatch on the certificate flavour."""
    if flavor == "extended-group":
        return build_theorem1_certificate(surface, curve, n)
    if flavor == "twist-subgroup":
        return build_theorem2_certificate(surface, curve, n, r_det_override)
    if flavor == "even-power-extended":
        return build_even_power_certificate(surface, curve, n, "extended")
    if flavor == "even-power-twist":
        return build_even_power_certificate(surface, curve, n, "twist")
    raise ValueError(f"unknown certificate flavor {flavor!r}")


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    script_ok: bool
    homology_ok: bool
    membership_ok: bool | None
    failed_step: int | None
    message: str

    def __str__(self) -> str:
        return ("ok" if self.ok else "FAIL") + f": {self.message}"


def verify_certificate(cert: Certificate) -> CertificateReport:
    """Re-derive the claim from n and the case, replay the script, check
    that each of its rules belongs to the flavour's presentation, re-run
    the case selection and the homology shadow, and re-check the
    determinant membership record.  Failure is a report state, even for
    malformed certificates."""
    problems: list[str] = []

    problems.extend(_case_problems(cert))
    problems.extend(_claim_problems(cert))

    expected_comm = commutator(cert.x, cert.y)
    if cert.script.start != expected_comm:
        problems.append("script start is not the commutator of x and y")
    if cert.script.end != cert.target:
        problems.append("script end is not the target word")

    report = verify_script(cert.script)
    if not report.ok:
        problems.append(f"script replay failed: {report.message}")
    presentation = _flavor_presentation(cert)
    foreign_step = _foreign_rule_step(cert.script, presentation)
    if foreign_step is not None:
        rule = cert.script.steps[foreign_step - 1].rule
        problems.append(f"step {foreign_step} uses {rule.render()}, which is not in "
                        f"presentation {presentation.name!r}")

    from .homology import ASSIGNMENTS

    homology_ok = False
    if cert.assignment_id in ASSIGNMENTS:
        try:
            homology_ok = _homology_check(cert.script, ASSIGNMENTS[cert.assignment_id]())
            if not homology_ok:
                problems.append("homology representations of start and end differ")
            elif not cert.homology_ok:
                problems.append("homology-check is recorded as fail but recomputes as pass")
        except Exception as exc:
            problems.append(f"homology check failed to run: {exc}")
    else:
        problems.append(f"unknown assignment {cert.assignment_id!r}")

    membership_ok: bool | None = None
    if cert.flavor in ("twist-subgroup", "even-power-twist"):
        if cert.membership is None:
            membership_ok = False
            problems.append("twist-subgroup certificate lacks a membership record")
        else:
            membership_ok = cert.membership.ok
            if cert.flavor == "twist-subgroup":
                try:
                    membership_ok = membership_ok and _membership_consistent(cert)
                except Exception as exc:
                    membership_ok = False
                    problems.append(f"membership check failed to run: {exc}")
            if not membership_ok:
                problems.append("membership record does not certify both entries")

    ok = not problems
    message = "; ".join(problems) if problems else "claim, script, homology and membership verified"
    failed_step = min((i for i in (report.failed_step, foreign_step) if i is not None),
                      default=None)
    return CertificateReport(ok, report.ok and foreign_step is None, homology_ok,
                             membership_ok, failed_step, message)


_CASE_FLAVOR = {"extended-group": "extended-group", "twist-subgroup": "twist-subgroup",
                "even-power-extended": "even-power", "even-power-twist": "even-power"}


def _case_problems(cert: Certificate) -> list[str]:
    """Re-run case selection and compare with the recorded case."""
    flavor = _CASE_FLAVOR.get(cert.flavor)
    if flavor is None:
        return [f"unknown certificate flavor {cert.flavor!r}"]
    override = None
    if (flavor == "twist-subgroup" and not cert.case.forced_rh
            and cert.case.case_id != "T2-orientable-complement"):
        override = cert.case.r_det
    try:
        expected = select_case(cert.surface, cert.curve, flavor, override)
    except Exception as exc:
        return [f"case selection rejects this certificate: {exc}"]
    if expected != cert.case:
        return ["recorded case does not match a fresh case selection"]
    if cert.flavor == "even-power-twist" and not cert.case.twist_admissible:
        return ["even-power twist certificate on an inadmissible complement"]
    return []


def _flavor_presentation(cert: Certificate) -> Presentation:
    """The rules a certificate's script may use: h rules only when y is
    a1^-1 r h."""
    if cert.flavor.startswith("even-power"):
        return even_power_presentation()
    return torus_presentation(with_h=cert.case.y_choice == "rh")


def _foreign_rule_step(script: ProofScript, presentation: Presentation) -> int | None:
    """1-based index of the first step whose rule is not in
    ``presentation``, or None."""
    steps = script.steps
    # scripts share a few hundred rule objects: test each distinct one once
    distinct = {id(step.rule): step.rule for step in steps}
    foreign = {key for key, rule in distinct.items() if rule not in presentation}
    if not foreign:
        return None
    return next(i for i, step in enumerate(steps, start=1) if id(step.rule) in foreign)


def _claim_problems(cert: Certificate) -> list[str]:
    """Compare target, x and y with the words the recorded n and case
    require: c1^n = [P^n, Y] with Y for the case's y-choice, or
    c^(2n) = [c^n, s] for the even-power flavours."""
    if cert.flavor.startswith("even-power"):
        claim = (("target", _C, 2 * cert.n), ("x", _C, cert.n), ("y", _S, 1))
    else:
        claim = (("target", C1, cert.n), ("x", P_WORD, cert.n),
                 ("y", _Y_WORDS.get(cert.case.y_choice), 1))
    problems = []
    for name, base, k in claim:
        found = getattr(cert, name)
        # the bases are cyclically reduced, so base^k has |k| len(base)
        # letters; comparing lengths first never expands an outside n
        # beyond the size of the recorded word
        if base is None or len(found) != abs(k) * len(base) or found != power(base, k):
            problems.append(f"{name} is not the word that n = {cert.n} and the case require")
    return problems


def _membership_consistent(cert: Certificate) -> bool:
    """The recorded determinants must match a fresh computation."""
    record = cert.membership
    assert record is not None
    if det_hom(cert.x, cert.surface) != record.det_x:
        return False
    if record.conditional:
        # the y entry must really be of the rh shape it claims
        return cert.case.forced_rh and cert.y == _Y_WORDS["rh"]
    return det_hom(cert.y, cert.surface, k=cert.case.k, r_det=cert.case.r_det) == record.det_y
