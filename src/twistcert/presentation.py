"""Rewrite rules of the three-holed-torus twist presentation and a
replayable proof-script verifier.

Every rule is one equation between two letter segments, stated once in
:func:`_equations`:

* ``COMMUTE(x,y)``    -- x^e y^f = y^f x^e for twists about disjoint curves,
* ``BRAID(b,ai)``     -- b ai b = ai b ai for the once-intersecting pairs,
* ``STAR()``          -- c1 c2 c3 = (b a1 a2 a3)^3,
* ``CENTRAL(ci,g)``   -- ci^e g^f = g^f ci^e: boundary twists are central,
* ``CONJ_REFLECT(g)`` -- r g^e r = sigma(g)^-e, the reflection conjugation,
* ``REVERSE_S(c)``    -- s c^e s^-1 = c^-e for the designated curve,
* ``COMMUTE_H(g)``    -- h^e g^f = g^f h^e: h moves past every twist,
* ``FREE_RED(x)``     -- x x^-1 = 1, or r r = 1 for the involution r.

``e`` and ``f`` are sign variables ranging over +1 and -1.  BRAID and STAR
also list the all-inverted copy of their relation; mixed signs never
match.  Rules are bidirectional: ``LR`` replaces the left side of the
equation by the right one at a position, ``RL`` the converse.  Each rule
instance is compiled once, when it is constructed, into a table from
every segment it rewrites to the replacement, so matching is one lookup.

A proof script is a start word, a step list and an end word; replaying
the steps must reproduce the end word letter for letter -- there is no
implicit reduction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import Iterable

from .words import DEFAULT_ALPHABET, Letter, Word, letter, word

#: The reflection's action on curves: fixes b, a1, c1 and swaps a2/a3, c2/c3.
SIGMA = {
    "b": "b",
    "a1": "a1",
    "a2": "a3",
    "a3": "a2",
    "c1": "c1",
    "c2": "c3",
    "c3": "c2",
}

_TORUS_GENS = ("b", "a1", "a2", "a3", "c1", "c2", "c3")
_BOUNDARY = ("c1", "c2", "c3")
_DISJOINT_PAIRS = {frozenset(p) for p in (("a1", "a2"), ("a1", "a3"), ("a2", "a3"))}
for _c in _BOUNDARY:
    for _g in _TORUS_GENS:
        if _g != _c:
            _DISJOINT_PAIRS.add(frozenset((_c, _g)))
_INVERTIBLE = frozenset(n for n in DEFAULT_ALPHABET if not DEFAULT_ALPHABET.is_involution(n))


def _equations(family: str, params: tuple[str, ...]) -> list[tuple[str, str]] | None:
    """The LR equations ``(lhs, rhs)`` of a rule instance, in the word
    grammar with sign variables (``x^e``, ``x^-f``); None if the instance
    is not a relation of the presentations."""
    match family, params:
        case "COMMUTE", (x, y) if frozenset(params) in _DISJOINT_PAIRS:
            return [(f"{x}^e {y}^f", f"{y}^f {x}^e")]
        case "BRAID", ("b", ai) if ai in ("a1", "a2", "a3"):
            return _with_inverted(f"b {ai} b", f"{ai} b {ai}")
        case "STAR", ():
            return _with_inverted("c1 c2 c3", " ".join(["b a1 a2 a3"] * 3))
        case "CENTRAL", (ci, g) if ci in _BOUNDARY and g in _TORUS_GENS and g != ci:
            return [(f"{ci}^e {g}^f", f"{g}^f {ci}^e")]
        case "CONJ_REFLECT", (g,) if g in SIGMA:
            return [(f"r {g}^e r", f"{SIGMA[g]}^-e")]
        case "REVERSE_S", ("c",):
            return [("s c^e s^-1", "c^-e")]
        case "COMMUTE_H", (g,) if g in _TORUS_GENS:
            return [(f"h^e {g}^f", f"{g}^f h^e")]
        case "FREE_RED", (x,) if x.removesuffix("^-1") in _INVERTIBLE:
            return [(f"{x} {letter(x).inverse()}", "")]
        case "FREE_RED", ("r",):
            return [("r r", "")]
    return None


def _with_inverted(lhs: str, rhs: str) -> list[tuple[str, str]]:
    """An equation and its copy with every letter inverted."""
    return [(lhs, rhs), (_inverted(lhs), _inverted(rhs))]


def _inverted(pattern: str) -> str:
    return " ".join(f"{name}^-1" for name in reversed(pattern.split()))


_letter = lru_cache(maxsize=None)(Letter)  # the compiled tables share their letters


def _letters(pattern: str, signs: dict[str, int]) -> tuple[Letter, ...]:
    """The letters of a pattern under one assignment of its sign variables."""
    out = []
    for token in pattern.split():
        name, _, exponent = token.partition("^")
        sign = signs.get(exponent.lstrip("-"), 1)  # "" and "-1" carry no variable
        out.append(_letter(name, -sign if exponent.startswith("-") else sign))
    return tuple(out)


class Direction(Enum):
    LR = "LR"
    RL = "RL"

    def flipped(self) -> "Direction":
        return Direction.RL if self is Direction.LR else Direction.LR


class PatternMismatch(Exception):
    """A rule pattern failed to match the word at the step's position."""

    def __init__(self, position: int, expected: str, found: str):
        super().__init__(f"expected {expected} at position {position}, found {found}")
        self.position = position
        self.expected = expected
        self.found = found


class UnknownRule(KeyError):
    pass


@dataclass(frozen=True)
class Rule:
    """One parametric rule instance, e.g. COMMUTE(a1,a2) or FREE_RED(a1^-1)."""

    family: str
    params: tuple[str, ...] = ()
    # every segment the rule rewrites, mapped to its replacement, per direction
    _lr: dict = field(init=False, repr=False, compare=False)
    _rl: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        equations = _equations(self.family, self.params)
        if equations is None:
            raise ValueError(f"{self.render()} is not a rule of the presentations")
        lr = {}
        for lhs, rhs in equations:
            for e, f in product((1, -1), repeat=2):
                signs = {"e": e, "f": f}
                lr[_letters(lhs, signs)] = _letters(rhs, signs)
        object.__setattr__(self, "_lr", lr)
        object.__setattr__(self, "_rl", {rhs: lhs for lhs, rhs in lr.items()})

    def render(self) -> str:
        return f"{self.family}({','.join(self.params)})"

    def rewrites(self, direction: Direction) -> dict[tuple[Letter, ...], tuple[Letter, ...]]:
        """Every segment the rule rewrites in ``direction``, mapped to its
        replacement."""
        return self._lr if direction is Direction.LR else self._rl

    def pattern_len(self, direction: Direction) -> int:
        return len(next(iter(self.rewrites(direction))))

    def match(self, letters: tuple[Letter, ...], pos: int, direction: Direction
              ) -> tuple[Letter, ...] | None:
        """Return the replacement letters if the pattern matches at pos."""
        table = self.rewrites(direction)
        n = len(next(iter(table)))
        if pos < 0 or pos + n > len(letters):
            return None
        return table.get(letters[pos:pos + n])


@dataclass(frozen=True)
class ProofStep:
    rule: Rule
    direction: Direction
    position: int

    def render(self) -> str:
        return f"{self.rule.render()} {self.direction.value} @ {self.position}"

    def inverted(self) -> "ProofStep":
        """The step undoing this one at the same position."""
        return ProofStep(self.rule, self.direction.flipped(), self.position)


@dataclass(frozen=True)
class ProofScript:
    start: Word
    steps: tuple[ProofStep, ...]
    end: Word

    def inverted(self) -> "ProofScript":
        return ProofScript(self.end, tuple(s.inverted() for s in reversed(self.steps)), self.start)


def apply_rule(w: Word, step: ProofStep) -> Word:
    """Apply one step; raise :class:`PatternMismatch` if it does not fit."""
    repl = step.rule.match(w.letters, step.position, step.direction)
    if repl is None:
        n = step.rule.pattern_len(step.direction)
        found = " ".join(str(lt) for lt in w.letters[step.position:step.position + n])
        raise PatternMismatch(step.position, f"{step.rule.render()} {step.direction.value}",
                              found or "<out of range>")
    pos, n = step.position, step.rule.pattern_len(step.direction)
    return Word(w.letters[:pos] + repl + w.letters[pos + n:])


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failed_step: int | None  # 1-based, matching the script text labels
    message: str
    final: Word

    def __str__(self) -> str:
        status = "ok" if self.ok else f"FAIL at step {self.failed_step}"
        return f"{status}: {self.message}"


def verify_script(script: ProofScript) -> VerificationReport:
    """Replay every step from the start word; the result must equal the end
    word exactly.  Failure is a report state, never an exception."""
    current = script.start
    for i, step in enumerate(script.steps, start=1):
        try:
            current = apply_rule(current, step)
        except PatternMismatch as exc:
            return VerificationReport(False, i, str(exc), current)
    if current != script.end:
        return VerificationReport(
            False, len(script.steps) + 1,
            f"final word {current} does not equal declared end {script.end}", current)
    return VerificationReport(True, None, f"{len(script.steps)} steps replayed", current)


class Presentation:
    """An immutable rule table."""

    def __init__(self, name: str, rules: Iterable[Rule]):
        self.name = name
        self._rules: dict[tuple[str, tuple[str, ...]], Rule] = {}
        for rule in rules:
            self._rules[(rule.family, rule.params)] = rule

    def rule(self, family: str, params: tuple[str, ...] = ()) -> Rule:
        try:
            return self._rules[(family, tuple(params))]
        except KeyError:
            raise UnknownRule(f"{family}({','.join(params)}) is not in presentation "
                              f"{self.name!r}") from None

    def rules(self) -> tuple[Rule, ...]:
        return tuple(self._rules.values())


def _free_red_rules(names: Iterable[str]) -> list[Rule]:
    out = []
    for name in names:
        out.append(Rule("FREE_RED", (name,)))
        if name in _INVERTIBLE:
            out.append(Rule("FREE_RED", (f"{name}^-1",)))
    return out


@lru_cache(maxsize=None)
def torus_presentation(with_h: bool = False) -> Presentation:
    """The mapping-class-group rules of the three-holed torus, plus the
    reflection conjugation; optionally extended by the commuting
    complement homeomorphism h."""
    rules: list[Rule] = []
    for pair in sorted(_DISJOINT_PAIRS, key=sorted):
        rules.append(Rule("COMMUTE", tuple(sorted(pair))))
    for ai in ("a1", "a2", "a3"):
        rules.append(Rule("BRAID", ("b", ai)))
    rules.append(Rule("STAR"))
    for ci in _BOUNDARY:
        for g in _TORUS_GENS:
            if g != ci:
                rules.append(Rule("CENTRAL", (ci, g)))
    for g in _TORUS_GENS:
        rules.append(Rule("CONJ_REFLECT", (g,)))
    names = list(_TORUS_GENS) + ["r"]
    if with_h:
        for g in _TORUS_GENS:
            rules.append(Rule("COMMUTE_H", (g,)))
        names.append("h")
    rules.extend(_free_red_rules(names))
    return Presentation("torus+h" if with_h else "torus", rules)


@lru_cache(maxsize=None)
def even_power_presentation() -> Presentation:
    """Rules for the even-power certificates: the designated curve c and
    its neighbourhood-reversing homeomorphism s."""
    rules = [Rule("REVERSE_S", ("c",))]
    rules.extend(_free_red_rules(["c", "s"]))
    return Presentation("even-power", rules)


# --- script text format ----------------------------------------------------
#
#   # comment
#   start: <word>
#   step <k>: <RULE>(<params>) <LR|RL> @ <position>
#   end: <word>
#
# Step labels k count from 1 and must be consecutive.

_STEP_RE = re.compile(r"step (\d+): ([A-Z_]+)\(([^)]*)\) (LR|RL) @ (\d+)$")


class ScriptSyntaxError(ValueError):
    pass


def fixture_path(name: str):
    """Path of a bundled proof-script fixture, e.g. ``chain_a.proof``."""
    return Path(__file__).parent / "fixtures" / name


def format_script(script: ProofScript) -> str:
    lines = [f"start: {script.start}"]
    for i, step in enumerate(script.steps, start=1):
        lines.append(f"step {i}: {step.render()}")
    lines.append(f"end: {script.end}")
    return "\n".join(lines) + "\n"


def parse_script(text: str, presentation: Presentation) -> ProofScript:
    start: Word | None = None
    end: Word | None = None
    steps: list[ProofStep] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("start:"):
            if start is not None:
                raise ScriptSyntaxError(f"line {lineno}: duplicate start line")
            start = word(line[len("start:"):].strip())
        elif line.startswith("end:"):
            if end is not None:
                raise ScriptSyntaxError(f"line {lineno}: duplicate end line")
            end = word(line[len("end:"):].strip())
        else:
            m = _STEP_RE.match(line)
            if not m:
                raise ScriptSyntaxError(f"line {lineno}: cannot parse {line!r}")
            k, family, params_text, direction, pos = m.groups()
            if int(k) != len(steps) + 1:
                raise ScriptSyntaxError(f"line {lineno}: step label {k}, expected {len(steps) + 1}")
            params = tuple(p.strip() for p in params_text.split(",")) if params_text.strip() else ()
            rule = presentation.rule(family, params)
            steps.append(ProofStep(rule, Direction(direction), int(pos)))
    if start is None or end is None:
        raise ScriptSyntaxError("script needs both a start and an end line")
    return ProofScript(start, tuple(steps), end)


# --- bounded bidirectional search -------------------------------------------


@dataclass(frozen=True)
class EqualityResult:
    status: str  # "equal" | "unknown"
    witness: ProofScript | None


def _neighbours(letters: tuple[Letter, ...], rules: tuple[Rule, ...]):
    """All single-step rewrites, in deterministic (rule id, position) order."""
    for rule in rules:
        for direction in (Direction.LR, Direction.RL):
            span = rule.pattern_len(direction)
            for pos in range(len(letters) - span + 1):
                repl = rule.match(letters, pos, direction)
                if repl is not None:
                    yield (letters[:pos] + repl + letters[pos + span:],
                           ProofStep(rule, direction, pos))


def equal_modulo_rules(u: Word, v: Word, budget: int,
                       presentation: Presentation | None = None,
                       slack: int = 8) -> EqualityResult:
    """Breadth-first bidirectional search for a rewrite path from u to v.

    Returns "equal" only with a replayable script as witness; "unknown"
    never asserts inequality.  ``budget`` caps the number of expanded
    words; words longer than max(|u|,|v|) + slack are pruned.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    pres = presentation if presentation is not None else torus_presentation(with_h=True)
    rules = tuple(sorted(pres.rules(), key=lambda r: r.render()))
    limit = max(len(u), len(v)) + slack

    # parents[side][word] = (previous word, step that produced this word)
    parents: list[dict[tuple[Letter, ...], tuple[tuple[Letter, ...], ProofStep] | None]]
    parents = [{u.letters: None}, {v.letters: None}]
    frontiers = [[u.letters], [v.letters]]
    expanded = 0
    meet: tuple[Letter, ...] | None = u.letters if u.letters in parents[1] else None

    while meet is None and expanded < budget and (frontiers[0] or frontiers[1]):
        side = 0 if (len(frontiers[0]) <= len(frontiers[1]) and frontiers[0]) or not frontiers[1] else 1
        next_frontier: list[tuple[Letter, ...]] = []
        for node in frontiers[side]:
            if meet is not None or expanded >= budget:
                break
            expanded += 1
            for child, step in _neighbours(node, rules):
                if len(child) > limit or child in parents[side]:
                    continue
                parents[side][child] = (node, step)
                next_frontier.append(child)
                if child in parents[1 - side]:
                    meet = child
                    break
        frontiers[side] = next_frontier

    if meet is None:
        return EqualityResult("unknown", None)

    forward: list[ProofStep] = []  # u ..> meet
    node = meet
    while parents[0][node] is not None:
        prev, step = parents[0][node]  # type: ignore[misc]
        forward.append(step)
        node = prev
    forward.reverse()
    backward: list[ProofStep] = []  # meet ..> v by inverting v-side steps
    node = meet
    while parents[1][node] is not None:
        prev, step = parents[1][node]  # type: ignore[misc]
        backward.append(step.inverted())
        node = prev
    script = ProofScript(u, tuple(forward + backward), v)
    report = verify_script(script)
    if not report.ok:  # pragma: no cover - internal consistency guard
        raise AssertionError(f"search produced a broken witness: {report}")
    return EqualityResult("equal", script)
