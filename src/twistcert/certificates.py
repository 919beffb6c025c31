"""Commutator certificates: a power of the distinguished twist equals a
single commutator, with a replayable proof script and exact homology and
determinant checks attached.

Every certificate claims target = [x, y], and what it claims depends on
the case's y-choice alone.  ``CLAIMS`` states it once per choice, with
P = b a2 a3 b a1 a2 c2^-1:

* ``r``  -- c1^n = [P^n, a1^-1 r], over the ``torus`` rules, checked in
  the ``genus3`` homology model (the extended group, and the twist
  subgroup when the reflection acts with determinant +1);
* ``rh`` -- c1^n = [P^n, a1^-1 r h], over ``torus+h`` in ``genus3-h``
  (the twist subgroup when that determinant is -1 or not computed; h is
  the commuting complement homeomorphism);
* ``s``  -- c^(2n) = [c^n, s] with s c s^-1 = c^-1, over ``even-power``
  in ``curve-reverser``, for even powers of any twist.

``CERTIFICATE_FLAVORS`` states each certificate flavour once: its
``certify --flavor`` name, the ``select_case`` family of its case, and
whether its claim must lie in the twist subgroup, which adds a record of
the determinants that decide membership (``_membership``).  Case
selection takes only the flavour, the surface and the curve.

A ``Certificate`` holds its request (flavour, n, surface and curve), the
claim words target, x and y, and the script; its case, claim row, homology
model and verdict and membership record are computed from the request,
and a request's case is selected once for all of them (``_select_case``).
``build_certificate`` is the one path that assembles a certificate: it
builds the claim of its case's row.  ``verify_certificate`` checks the
certificate against the same row.

The homology check is one check per claim row, cached
(``_row_homology_ok``): two equations between the images of x_base, y
and target_base in the row's model, which hold exactly when the claim
holds there at every n.  So neither build nor verify takes a power that
depends on n.  Every rule instance holds in its rule set's model, so a
script that replays has equal start and end images, and the claim's
image is the script's once its start is [x, y] and its end the target.
The verifier reports the row's result only after target, x and y match
n, that is, once the certificate states the row's claim.

All scripts are generated for the concrete exponent: the builder applies
each step as it emits it, so a bad position or a rule outside the row's
rule set is a build-time error, never a silent corruption.
``build_rel1`` derives the underlying factorisation c1^n = (P)^n (Q)^n,
with Q = c3^-1 b a2 a3 b a1 a2, by induction on n as the paper does; the
commutator scripts append it inverted after rewriting the conjugated half.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import attrgetter
from typing import Iterable, NamedTuple

from .homology import ASSIGNMENTS, det_hom, evaluate_rep, fig2_reflection_det
from .presentation import (
    BOUNDARY,
    PRESENTATIONS,
    Direction,
    Move,
    PatternMismatch,
    Presentation,
    ProofScript,
    ProofStep,
    fixture_path,
    parse_script,
    torus_presentation,
    verify_script,
)
from .surfaces import CurveClass, OutOfScope, SurfaceSpec, TheoremCase, select_case
from .words import Letter, Word, commutator, concat, invert, power, word

P_WORD = word("b a2 a3 b a1 a2 c2^-1")
Q_WORD = word("c3^-1 b a2 a3 b a1 a2")
C1 = word("c1")
_C = word("c")


def mirror_local_steps(steps: Iterable[ProofStep], window_len: int) -> tuple[ProofStep, ...]:
    """Steps proving u -> v, transformed to prove u^-1 -> v^-1.

    Inverting a word reverses it and flips every sign, so a step at
    position p on a length-L word lands at L - p - len(segment), as a
    step of its move's mirror (see :class:`~twistcert.presentation.Move`).
    """
    out: list[ProofStep] = []
    length = window_len
    for rule, direction, position in steps:
        move = rule.moves[direction]
        if move.mirror is None:
            raise ValueError(f"{move.name} steps cannot be mirrored")
        out.append(ProofStep(rule, move.mirror.direction, length - position - move.length))
        length += move.inverse.length - move.length
    return tuple(out)


# The two derivation chains ship as proof-script fixtures, their only source.
# Chain A: c1 c2 c3, the boundary twists' product, through the star and braid
# relations to the six-twist word squared, (b a2 a3 b a1 a2)^2; window 3 to 12.
_CHAIN_A = parse_script(fixture_path("chain_a.proof").read_text(), torus_presentation())
# Chain B: the reflection-conjugated block c3^-1 a3 a1 b a2 a3 b, by braid and
# commutation moves to its a1-conjugate a1 (c3^-1 b a2 a3 b a1 a2) a1^-1; window 7 to 9.
_CHAIN_B = parse_script(fixture_path("chain_b.proof").read_text(), torus_presentation())
CHAIN_B_STEPS = _CHAIN_B.steps

CHAIN_A_MIRROR = mirror_local_steps(_CHAIN_A.steps, len(_CHAIN_A.start))
CHAIN_B_MIRROR = mirror_local_steps(CHAIN_B_STEPS, len(_CHAIN_B.start))


class ScriptBuilder:
    """Accumulates proof steps while applying them to a live word, so every
    emitted position is checked against the actual current word.  The word
    is one list of letters that each step rewrites in place; a step that
    does not fit raises and leaves it unchanged.  As in a parsed script,
    each distinct step is one object, kept in ``shared`` and made in C."""

    def __init__(self, start: Word, presentation: Presentation):
        self.presentation = presentation
        self.start = start
        self.letters = list(start.letters)
        self._steps: list[ProofStep] = []
        self.shared: dict[ProofStep, ProofStep] = {}

    def word(self) -> Word:
        return Word(tuple(self.letters))

    def apply(self, family: str, params: tuple[str, ...], direction: Direction,
              position: int) -> None:
        rule = self.presentation.rule(family, params)
        rule.moves[direction].apply(self.letters, position)
        step = tuple.__new__(ProofStep, (rule, direction, position))
        self._steps.append(self.shared.setdefault(step, step))

    def apply_steps(self, steps: Iterable[ProofStep], offset: int = 0) -> None:
        new, share, letters = tuple.__new__, self.shared.setdefault, self.letters
        for rule, direction, position in steps:
            position += offset
            rule.moves[direction].apply(letters, position)
            step = new(ProofStep, (rule, direction, position))
            self._steps.append(share(step, step))

    def apply_inverted(self, script: ProofScript) -> None:
        """Append ``script``'s steps inverted and in reverse order, taking
        the current word, which must be the script's end, back to its start.
        The steps are not replayed again: ``script`` has replayed, and every
        move's table and its inverse's are inverse bijections."""
        if self.letters != list(script.end.letters):
            raise AssertionError(f"script builder is at {self.word()}, "
                                 f"not at the end {script.end} of the inverted script")
        new, share, inverse = tuple.__new__, self.shared.setdefault, dict.fromkeys(script.steps)
        for key in inverse:
            rule, direction, position = key
            step = new(ProofStep, (rule, rule.moves[direction].inverse.direction, position))
            inverse[key] = share(step, step)
        self._steps += map(inverse.__getitem__, reversed(script.steps))
        self.letters = list(script.start.letters)

    def finish(self, end: Word) -> ProofScript:
        if self.word() != end:
            raise AssertionError(
                f"script builder ended at {self.word()}, expected {end}")
        return ProofScript(self.start, tuple(self._steps), end)


def _central_move(builder: ScriptBuilder, src: int, dst: int) -> None:
    """Move the boundary-twist letter at ``src`` left to ``dst`` by CENTRAL
    swaps, one past each letter between.

    Each distinct swap, a (left, mover) pair, is checked once, in the
    order it first occurs, as ``ScriptBuilder.apply`` would: its CENTRAL
    rule must be in the builder's presentation, and its move must rewrite
    the pair into the pair reversed.  A swap that fails raises what
    ``apply`` raises at its first position, and the word is left as it
    stood.
    """
    letters = builder.letters
    mover, segment = letters[src], letters[dst:src]
    swaps: dict[Letter, tuple] = {}  # left -> the swap's (rule, direction)
    for left in dict.fromkeys(reversed(segment)):
        move = _central_swap(builder.presentation, left, mover)
        if move.match((left, mover), 0) != (mover, left):
            pos = src - 1 - segment[::-1].index(left)
            raise PatternMismatch(pos, move.name, f"{left} {mover}")
        swaps[left] = (move.rule, move.direction)
    # ProofStep(rule, direction, pos) of each swap, right to left, made in C
    made = list(map(tuple.__new__, repeat(ProofStep),
                    map(tuple.__add__, map(swaps.__getitem__, reversed(segment)),
                        zip(range(src - 1, dst - 1, -1)))))
    builder._steps += map(builder.shared.setdefault, made, made)
    letters[dst:src + 1] = [mover, *segment]


def _central_swap(presentation: Presentation, left: Letter, mover: Letter) -> Move:
    """The CENTRAL move that swaps ``left mover`` into ``mover left``.
    Raise AssertionError if neither letter is a boundary twist or both
    twist about the same curve, and UnknownRule if ``presentation`` lacks
    the rule."""
    if mover.name in BOUNDARY:
        if left.name == mover.name:
            raise AssertionError("cannot swap a central letter past itself")
        return presentation.rule("CENTRAL", (mover.name, left.name)).moves[Direction.RL]
    if left.name in BOUNDARY:
        return presentation.rule("CENTRAL", (left.name, mover.name)).moves[Direction.LR]
    raise AssertionError(f"neither {left} nor {mover} is central; cannot rearrange")


@dataclass(frozen=True)
class Rel1:
    """The factorisation c1^n = P^n Q^n with its derivation script."""

    n: int
    lhs: Word
    rhs: Word
    script: ProofScript


def build_rel1(n: int) -> Rel1:
    """Derive c1^n = (b a2 a3 b a1 a2 c2^-1)^n (c3^-1 b a2 a3 b a1 a2)^n by
    induction on |n|, c1 being central.  At k = 0 ... |n|-1 the word is
    P^k Q^k c1^(+-(|n|-k)): its next c1^(+-1) moves left across Q^k, 7k
    central moves, and the unit derivation rewrites it in place into
    P^(+-1) Q^(+-1).  The star relation (after 3 central moves for c1^-1)
    expands it into the squared six-twist word S S with two boundary twists
    split off, and 13 central moves put those in place: S c2^-1 c3^-1 S,
    or c2 S^-1 S^-1 c3.
    """
    lhs = power(C1, n)
    rhs = concat(power(P_WORD, n), power(Q_WORD, n))
    builder = ScriptBuilder(lhs, torus_presentation())
    for k in range(abs(n)):
        p = 7 * k
        _central_move(builder, 2 * p, p)
        if n > 0:
            builder.apply("FREE_RED", ("c2",), Direction.RL, p + 1)
            builder.apply("FREE_RED", ("c3",), Direction.RL, p + 2)
            builder.apply_steps(_CHAIN_A.steps, offset=p)
            _central_move(builder, p + 13, p + 6)  # S S c3^-1 c2^-1 -> S c2^-1 S c3^-1
            _central_move(builder, p + 13, p + 7)  # -> S c2^-1 c3^-1 S
        else:
            builder.apply("FREE_RED", ("c2^-1",), Direction.RL, p)
            builder.apply("CENTRAL", ("c2", "c1"), Direction.LR, p + 1)
            builder.apply("FREE_RED", ("c3^-1",), Direction.RL, p)
            builder.apply("CENTRAL", ("c3", "c2"), Direction.LR, p + 1)
            builder.apply("CENTRAL", ("c3", "c1"), Direction.LR, p + 2)
            builder.apply_steps(CHAIN_A_MIRROR, offset=p)
            _central_move(builder, p + 13, p)  # S^-1 S^-1 c3 c2 -> c2 S^-1 S^-1 c3
    return Rel1(n, lhs, rhs, builder.finish(rhs))


@dataclass(frozen=True)
class MembershipRecord:
    """Determinant values of the two commutator entries; det +1 decides
    membership in the twist subgroup."""

    det_x: int
    det_y: int | None
    note: str

    @property
    def conditional(self) -> bool:
        """No determinant is recorded for y: its membership is argued in the note."""
        return self.det_y is None

    @property
    def ok(self) -> bool:
        return self.det_x == 1 and (self.det_y == 1 or self.conditional)


@dataclass(frozen=True)
class Certificate:
    """A request (flavour, n, surface and curve), the claim words it states
    and their proof script.  The rest of what a certificate shows is
    computed from the request: its case, the claim row of the case, the
    row's homology model and check, and the membership record."""

    flavor: str  # a key of CERTIFICATE_FLAVORS
    n: int
    surface: SurfaceSpec
    curve: CurveClass
    target: Word
    x: Word
    y: Word
    script: ProofScript

    @property
    def case(self) -> TheoremCase:
        """The request's case; raises ValueError where it has none."""
        return _select_case(self.flavor, self.surface, self.curve)

    @property
    def claim(self) -> Claim:
        return CLAIMS[self.case.y_choice]

    @property
    def assignment_id(self) -> str:
        return self.claim.assignment

    @property
    def homology_ok(self) -> bool:
        return _row_homology_ok(self.claim)

    @property
    def membership(self) -> MembershipRecord | None:
        return _membership(self.flavor, self.case, self.n, self.surface)


class Claim(NamedTuple):
    """What a certificate of one y-choice asserts: target = [x, y] with
    target = target_base^n and x = x_base^n, proved over the ``rules``
    presentation and checked once per row in the ``assignment`` homology
    model (``_row_homology_ok``)."""

    target_base: Word
    x_base: Word
    y: Word
    rules: str
    assignment: str


CLAIMS = {
    "r": Claim(C1, P_WORD, word("a1^-1 r"), "torus", "genus3"),
    "rh": Claim(C1, P_WORD, word("a1^-1 r h"), "torus+h", "genus3-h"),
    "s": Claim(word("c c"), _C, word("s"), "even-power", "curve-reverser"),
}


@lru_cache(maxsize=None)
def _row_homology_ok(claim: Claim) -> bool:
    """Whether ``claim`` holds at every n in its homology model.

    With X, Y and T the images of x_base, y and target_base, check
    Y X^-1 Y^-1 = X^-1 T, which is the claim at n = 1, and X T = T X,
    which given the first is the claim at n = 2.  Together they give the
    claim at every n, since X commutes with T:
    [X^n, Y] = X^n (Y X^-1 Y^-1)^n = X^n (X^-1 T)^n = T^n and
    [X^-m, Y] = X^-m (Y X Y^-1)^m = X^-m (T^-1 X)^m = T^-m.
    Each inverse is the image of the inverted word, so it is built from
    the exact letter inverses the model holds."""
    model = ASSIGNMENTS[claim.assignment]()
    x, x_inv, y, y_inv, t = (evaluate_rep(w, model) for w in (
        claim.x_base, invert(claim.x_base), claim.y, invert(claim.y), claim.target_base))
    return y * x_inv * y_inv == x_inv * t and x * t == t * x


class Flavor(NamedTuple):
    """How a certificate flavour is asked for and what it adds to the
    claim of its case: the ``certify --flavor`` name, the ``select_case``
    family, and whether x and y must lie in the twist subgroup."""

    option: str
    family: str
    twist: bool


CERTIFICATE_FLAVORS = {
    "extended-group": Flavor("extended", "extended-group", False),
    "twist-subgroup": Flavor("twist", "twist-subgroup", True),
    "even-power-extended": Flavor("even", "even-power", False),
    "even-power-twist": Flavor("even-twist", "even-power", True),
}


@lru_cache(maxsize=64)
def _select_case(flavor: str, surface: SurfaceSpec, curve: CurveClass) -> TheoremCase:
    """The case of a certificate flavour; raise OutOfScope if it has none.
    A case depends on these three inputs alone, so a certificate's build,
    header, parse and verification share one selection of its case."""
    row = CERTIFICATE_FLAVORS.get(flavor)
    if row is None:
        raise ValueError(f"unknown certificate flavor {flavor!r}")
    case = select_case(surface, curve, row.family)
    # only even-power cases record whether the twist subgroup holds an s
    if row.twist and case.twist_admissible is False:
        raise OutOfScope("the complement has no nonorientable piece of genus >= 2, "
                         "so no curve-reversing map exists in the twist subgroup")
    return case


def _membership(flavor: str, case: TheoremCase, n: int,
                surface: SurfaceSpec) -> MembershipRecord | None:
    """The determinant record of a flavour whose claim must lie in the
    twist subgroup, from the case's claim row: each determinant is +-1,
    so det(x) = det(x_base)^|n|.  None for the other flavours."""
    if not CERTIFICATE_FLAVORS[flavor].twist:
        return None
    if case.y_choice == "s":
        return MembershipRecord(
            1, 1,
            "x is a twist power; s is chosen in the twist subgroup by composing "
            "with a crosscap slide in the nonorientable complement piece")
    claim = CLAIMS[case.y_choice]
    det_x = det_hom(claim.x_base, surface) ** abs(n)  # twists only
    if case.forced_rh:
        return MembershipRecord(
            det_x, None,
            "reflection determinant unrecorded for this embedding; exactly one "
            "of a1^-1 r and a1^-1 r h lies in the twist subgroup, and the "
            "emitted rh form is the member whenever the reflection is not")
    det_y = det_hom(claim.y, surface, k=case.k)
    return MembershipRecord(det_x, det_y, f"reflection determinant "
                            f"{fig2_reflection_det(case.k):+d} recorded for the embedding")


def _commutator_script(y_choice: str, claim: Claim, x: Word, target: Word,
                       n: int) -> ProofScript:
    """Script from the written commutator [x, y] down to the target, over
    the claim's rules."""
    builder = ScriptBuilder(commutator(x, claim.y), PRESENTATIONS[claim.rules])
    m = abs(n)
    if y_choice == "s":
        # each s c^(+-1) s^-1 collapses once the s^-1 s pairs are inserted
        for gap in range(m - 1, 0, -1):
            builder.apply("FREE_RED", ("s^-1",), Direction.RL, m + 1 + gap)
        for pos in range(m, 2 * m):
            builder.apply("REVERSE_S", ("c",), Direction.LR, pos)
    elif m:
        _reflection_phase(builder, n, with_h=y_choice == "rh")
    return builder.finish(target)


def _reflection_phase(builder: ScriptBuilder, n: int, with_h: bool) -> None:
    """Rewrite [P^n, Y] down to c1^n."""
    m = abs(n)
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
        builder.apply_steps(chain, offset=7 * m + 1 + 9 * j)
    for j in range(m + 1):
        builder.apply("FREE_RED", ("a1^-1",), Direction.LR, 7 * m + 7 * j)

    # the word is now P^n Q^n; run the factorisation backwards
    builder.apply_inverted(build_rel1(n).script)


def build_certificate(surface: SurfaceSpec, curve: CurveClass, n: int,
                      flavor: str) -> Certificate:
    """Certificate of ``flavor`` for t^n (t^(2n) for the even-power
    flavours) about ``curve``: select the case, then build the claim of
    its row with the row's rules and homology model."""
    case = _select_case(flavor, surface, curve)
    claim = CLAIMS[case.y_choice]
    x = power(claim.x_base, n)
    target = power(claim.target_base, n)
    script = _commutator_script(case.y_choice, claim, x, target, n)
    return Certificate(flavor, n, surface, case.curve, target, x, claim.y, script)


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
    """Check a certificate against the claim row of its request's case:
    compare target, x and y with the words that n and the row require;
    replay the script and check that each of its rules is in the row's
    rule set; once target, x and y match n, take the row's homology check
    (``_row_homology_ok``) and, for a twist flavour, check that the row's
    membership record certifies both entries.  Failure is a report state,
    even for malformed certificates."""
    problems = []
    if cert.script.start != commutator(cert.x, cert.y):
        problems.append("script start is not the commutator of x and y")
    if cert.script.end != cert.target:
        problems.append("script end is not the target word")
    report = verify_script(cert.script)
    if not report.ok:
        problems.append(f"script replay failed: {report.message}")

    foreign_step, homology_ok, membership_ok = None, False, None
    try:
        claim, membership = cert.claim, cert.membership
    except Exception as exc:
        problems.append(f"case selection rejects this certificate: {exc}")
    else:
        claim_problems = _claim_problems(cert, claim)
        problems.extend(claim_problems)
        presentation = PRESENTATIONS[claim.rules]
        foreign_step = _foreign_rule_step(cert.script, presentation)
        if foreign_step is not None:
            rule = cert.script.steps[foreign_step - 1].rule
            problems.append(f"step {foreign_step} uses {rule.render()}, which is not in "
                            f"presentation {presentation.name!r}")
        # the row's checks speak for the certificate only once it states the row's claim
        if not claim_problems:
            homology_ok = _row_homology_ok(claim)
            if not homology_ok:
                problems.append("the claim row fails its homology check")
        if membership is not None:
            membership_ok = membership.ok and not claim_problems
            if not membership.ok:
                problems.append("membership record does not certify both entries")

    ok = not problems
    message = "; ".join(problems) if problems else "claim, script, homology and membership verified"
    failed_step = min((i for i in (report.failed_step, foreign_step) if i is not None),
                      default=None)
    return CertificateReport(ok, report.ok and foreign_step is None, homology_ok,
                             membership_ok, failed_step, message)


def _foreign_rule_step(script: ProofScript, presentation: Presentation) -> int | None:
    """1-based index of the first step whose rule is not in
    ``presentation``, or None."""
    # scripts share a few hundred rule objects: test each distinct one once
    foreign = {rule for rule in set(map(attrgetter("rule"), script.steps))
               if rule not in presentation}
    if not foreign:
        return None
    return next(i for i, step in enumerate(script.steps, start=1) if step.rule in foreign)


def _claim_problems(cert: Certificate, claim: Claim) -> list[str]:
    """Compare target, x and y with the words the recorded n and the
    claim require."""
    problems = []
    for name, base, k in (("target", claim.target_base, cert.n),
                          ("x", claim.x_base, cert.n), ("y", claim.y, 1)):
        found = getattr(cert, name)
        # lengths first, so an outside n is never expanded past the recorded word
        if len(found) != abs(k) * len(base) or found.letters != _repeated(base, k):
            problems.append(f"{name} is not the word that n = {cert.n} and the case require")
    return problems


def _repeated(base: Word, k: int) -> tuple[Letter, ...]:
    """power(base, k)'s letters for a claim row's cyclically reduced word,
    with no r where k < 0: base's, inverted when k < 0, |k| times."""
    return (base if k >= 0 else invert(base)).letters * abs(k)
