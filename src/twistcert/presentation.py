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
equation by the right one at a position, ``RL`` the converse.

Which instances exist is stated once too: the three rule sets (``torus``,
``torus+h``, ``even-power``) are one table of ordered ``(family, params)``
keys, and a rule exists exactly when some rule set lists it.  Each
instance is compiled once, at import, into two :class:`Move` objects, one
per direction.  A move holds a table from every segment it rewrites to
the replacement, so matching is one lookup, and its step text; it links
to its inverse and to its mirror.  Every rule set, the script reader and
writer, the replay, the builders and the search share those objects.

A proof script is a start word, a step list and an end word; replaying
the steps must reproduce the end word letter for letter -- there is no
implicit reduction.  Replay applies each step's move to one list of
letters in place, so a step costs its segment, not the whole word.

A script has one text, and a certificate's script section is that text
indented by two spaces: :func:`format_script` writes both, and
:func:`parse_script` reads both, in passes that run in C, and refuses
any other text at its first line that differs.  Both work ``_CHUNK``
lines at a time, so neither makes a list of every line.

The bounded search :func:`equal_modulo_rules` works on words encoded as
``str``, one ASCII character per signed letter of ``GENERATORS`` (the
table :data:`_CODES`), so slicing, joining and hashing a search word
are string operations.  It searches over freely reduced words: words
in which no FREE_RED LR rule of the rule set matches, the normal form
of the free group.  Each rule set's segment index maps the encoded
segments of its other rules to encoded replacements, and its
cancellation table maps each FREE_RED LR pair to its rule; a child is
spliced and then reduced at its two splice boundaries.  The FREE_RED
steps appear only in the witness, which is written in letters from the
steps recorded for each word and replayed by :func:`verify_script`
before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import count, product, repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .words import GENERATORS, Letter, Word, WordSyntaxError, letter, spelled_word, word

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
#: The boundary twists of the three-holed torus, central in its rules.
BOUNDARY = ("c1", "c2", "c3")
_INVERTIBLE = frozenset(n for n, kind in GENERATORS.items() if kind != "reflection")


def _equations(family: str, params: tuple[str, ...]) -> list[tuple[str, str]]:
    """The LR equations ``(lhs, rhs)`` of a rule instance in the table,
    in the word grammar with sign variables (``x^e``, ``x^-f``)."""
    match family, params:
        case "COMMUTE", (x, y):
            return [(f"{x}^e {y}^f", f"{y}^f {x}^e")]
        case "BRAID", (b, ai):
            return _with_inverted(f"{b} {ai} {b}", f"{ai} {b} {ai}")
        case "STAR", ():
            return _with_inverted("c1 c2 c3", " ".join(["b a1 a2 a3"] * 3))
        case "CENTRAL", (ci, g):
            return [(f"{ci}^e {g}^f", f"{g}^f {ci}^e")]
        case "CONJ_REFLECT", (g,):
            return [(f"r {g}^e r", f"{SIGMA[g]}^-e")]
        case "REVERSE_S", (c,):
            return [(f"s {c}^e s^-1", f"{c}^-e")]
        case "COMMUTE_H", (g,):
            return [(f"h^e {g}^f", f"{g}^f h^e")]
        case "FREE_RED", ("r",):
            return [("r r", "")]
        case "FREE_RED", (x,):
            return [(f"{x} {letter(x).inverse()}", "")]


def _free_red(*names: str) -> list[tuple[str, tuple[str, ...]]]:
    """The FREE_RED keys of each name, then of its inverse if it has one."""
    return [("FREE_RED", (x,)) for name in names
            for x in ((name, f"{name}^-1") if name in _INVERTIBLE else (name,))]


_TORUS_RELATIONS = [
    *(("COMMUTE", pair) for pair in sorted(
        {("a1", "a2"), ("a1", "a3"), ("a2", "a3")}
        | {tuple(sorted((c, g))) for c in BOUNDARY for g in _TORUS_GENS if g != c})),
    *(("BRAID", ("b", ai)) for ai in ("a1", "a2", "a3")),
    ("STAR", ()),
    *(("CENTRAL", (c, g)) for c in BOUNDARY for g in _TORUS_GENS if g != c),
    *(("CONJ_REFLECT", (g,)) for g in _TORUS_GENS),
]

#: Every rule set, as the ordered keys ``(family, params)`` of its rules.
_RULE_SETS = {
    "torus": _TORUS_RELATIONS + _free_red(*_TORUS_GENS, "r"),
    "torus+h": _TORUS_RELATIONS + [("COMMUTE_H", (g,)) for g in _TORUS_GENS]
               + _free_red(*_TORUS_GENS, "r", "h"),
    "even-power": [("REVERSE_S", ("c",))] + _free_red("c", "s"),
}
#: The keys of every rule instance, in rule-set order: a rule exists
#: exactly when some rule set lists it.
_RULE_KEYS = dict.fromkeys(key for keys in _RULE_SETS.values() for key in keys)


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

    # members are singletons equal only to themselves, so the identity hash
    # (in C) agrees with equality; Enum's own hashes the name in Python
    __hash__ = object.__hash__


class PatternMismatch(Exception):
    """A rule pattern failed to match the word at the step's position."""

    def __init__(self, position: int, expected: str, found: str):
        super().__init__(f"expected {expected} at position {position}, found {found}")
        self.position = position
        self.expected = expected
        self.found = found


class UnknownRule(KeyError):
    """A rule no presentation at hand holds, raised by
    :meth:`Presentation.rule`.  :func:`parse_script` reports a step naming
    such a rule as a :class:`ScriptSyntaxError` that names its line."""

    __str__ = Exception.__str__  # the plain message, not KeyError's repr of it


class Move:
    """A rule in one direction: ``table`` maps every segment the move
    rewrites, each ``length`` letters long, to its replacement, and
    ``text`` is a step line's text up to its position.  ``inverse`` is the
    same rule's other direction, and ``mirror`` the move of the same rule
    that rewrites each inverted segment into the inverted replacement, or
    None if neither direction does."""

    __slots__ = ("rule", "direction", "table", "length", "name", "text", "inverse", "mirror")

    def __init__(self, rule: "Rule", direction: Direction, table: dict):
        self.rule, self.direction, self.table = rule, direction, table
        self.length = len(next(iter(table)))
        self.name = f"{rule.render()} {direction.value}"
        self.text = f"{self.name} @ "

    def match(self, letters: Sequence[Letter], pos: int) -> tuple[Letter, ...] | None:
        """The replacement of the segment at ``pos``, or None if the move
        rewrites no segment there."""
        end = pos + self.length
        # a negative pos would wrap around; FREE_RED RL matches the empty segment
        return self.table.get(tuple(letters[pos:end])) if 0 <= pos and end <= len(letters) else None

    def apply(self, letters: list[Letter], pos: int) -> None:
        """Rewrite ``letters`` at ``pos`` in place; raise
        :class:`PatternMismatch`, leaving them untouched, if the move
        rewrites no segment there."""
        repl = self.match(letters, pos)
        if repl is None:
            found = " ".join(str(lt) for lt in letters[pos:pos + self.length])
            raise PatternMismatch(pos, self.name, found or "<out of range>")
        letters[pos:pos + self.length] = repl


@dataclass(frozen=True, eq=False)
class Rule:
    """One parametric rule instance, e.g. COMMUTE(a1,a2) or FREE_RED(a1^-1),
    compiled once (``_RULES``) into its two moves, LR then RL: a rule
    equals only itself, hashed in C."""

    family: str
    params: tuple[str, ...] = ()
    moves: dict[Direction, Move] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if (self.family, self.params) not in _RULE_KEYS:
            raise ValueError(f"{self.render()} is not a rule of the presentations")
        lr = {}
        for lhs, rhs in _equations(self.family, self.params):
            for e, f in product((1, -1), repeat=2):
                signs = {"e": e, "f": f}
                lr[_letters(lhs, signs)] = _letters(rhs, signs)
        rl = {rhs: lhs for lhs, rhs in lr.items()}
        # the two tables must be inverse bijections, so that a step's
        # inverse undoes it: ScriptBuilder.apply_inverted relies on that
        if len(rl) != len(lr):
            raise ValueError(f"{self.render()} rewrites two segments to one")
        forward, backward = Move(self, Direction.LR, lr), Move(self, Direction.RL, rl)
        forward.inverse, backward.inverse = backward, forward
        # a move's mirror is the move whose table is its own, inverted; if the
        # LR table inverted is not a table of the rule, neither is the RL one
        mirrored = {_inverse(seg): _inverse(repl) for seg, repl in lr.items()}
        forward.mirror, backward.mirror = (
            (forward, backward) if mirrored == lr else (backward, forward) if mirrored == rl
            else (None, None))
        object.__setattr__(self, "moves", {Direction.LR: forward, Direction.RL: backward})

    def render(self) -> str:
        return f"{self.family}({','.join(self.params)})"

    def pattern_len(self, direction: Direction) -> int:
        return self.moves[direction].length

    def match(self, letters: Sequence[Letter], pos: int, direction: Direction
              ) -> tuple[Letter, ...] | None:
        """Return the replacement letters if the pattern matches at pos."""
        return self.moves[direction].match(letters, pos)


def _inverse(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    """The letters of the inverse word: reversed, each sign flipped."""
    return tuple([_letter(lt.name, -lt.sign) for lt in reversed(letters)])


class ProofStep(NamedTuple):
    """One rewrite: ``rule`` in ``direction`` at ``position``.  Steps are
    immutable values, so equal steps may be one shared object: a built or
    parsed script holds one object per distinct step."""

    rule: Rule
    direction: Direction
    position: int

    def render(self) -> str:
        return f"{self.rule.moves[self.direction].text}{self.position}"

    def inverted(self) -> "ProofStep":
        """The step undoing this one at the same position."""
        inverse = self.rule.moves[self.direction].inverse
        return ProofStep(self.rule, inverse.direction, self.position)


@dataclass(frozen=True)
class ProofScript:
    start: Word
    steps: tuple[ProofStep, ...]
    end: Word

    def inverted(self) -> "ProofScript":
        return ProofScript(self.end, tuple(s.inverted() for s in reversed(self.steps)), self.start)


def rewrite(letters: list[Letter], step: ProofStep) -> None:
    """Apply one step to ``letters`` in place by its move; raise
    :class:`PatternMismatch`, leaving ``letters`` untouched, if it does
    not fit."""
    rule, direction, pos = step
    rule.moves[direction].apply(letters, pos)


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
    letters = list(script.start.letters)
    for i, (rule, direction, pos) in enumerate(script.steps, start=1):
        try:
            rule.moves[direction].apply(letters, pos)
        except PatternMismatch as exc:
            return VerificationReport(False, i, str(exc), Word(tuple(letters)))
    current = Word(tuple(letters))
    if current != script.end:
        return VerificationReport(
            False, len(script.steps) + 1,
            f"final word {current} does not equal declared end {script.end}", current)
    return VerificationReport(True, None, f"{len(script.steps)} steps replayed", current)


#: The search's word encoding: one ASCII character per signed letter of
#: ``GENERATORS``, in table order ("A" is b, "B" is b^-1, "C" is a1, ...).
#: The keys are ``(name, sign)`` pairs, which a :class:`Letter` equals.
_CODES = {pair: chr(ord("A") + i) for i, pair in enumerate(product(GENERATORS, (1, -1)))}


def _encode(letters: Iterable[Letter], codes: dict[tuple[str, int], str]) -> str:
    """``letters`` as a code string, one character of ``codes`` each."""
    return "".join([codes[lt] for lt in letters])


class _SegmentIndex(NamedTuple):
    segments: dict[str, list[tuple[int, Rule, Direction, str]]]  # by code string
    lengths: tuple[int, ...]  # ascending
    cancel: dict[str, Rule]  # each pair a FREE_RED LR step deletes, to its rule


class Presentation:
    """An immutable rule table."""

    def __init__(self, name: str, rules: Iterable[Rule]):
        self.name = name
        self._rules: dict[tuple[str, tuple[str, ...]], Rule] = {}
        for rule in rules:
            self._rules[(rule.family, rule.params)] = rule
        self._index: _SegmentIndex | None = None  # built by the first search

    def rule(self, family: str, params: tuple[str, ...] = ()) -> Rule:
        try:
            return self._rules[(family, tuple(params))]
        except KeyError:
            raise UnknownRule(f"{family}({','.join(params)}) is not in presentation "
                              f"{self.name!r}") from None

    def rules(self) -> tuple[Rule, ...]:
        return tuple(self._rules.values())

    def __contains__(self, rule: Rule) -> bool:
        return (rule.family, rule.params) in self._rules

    @cached_property
    def _step_texts(self) -> dict[str, tuple[Rule, Direction]]:
        """``"RULE(params) DIR @ "``, a step line's text between its label
        and its position, mapped to the rule and direction it names.
        Built once, on first use."""
        return {move.text: (rule, move.direction) for rule in self._rules.values()
                for move in rule.moves.values()}

    def _segment_index(self) -> _SegmentIndex:
        """Every segment a rule other than FREE_RED rewrites, in either
        direction, mapped to its rewrites: ``(rank, rule, direction,
        replacement)``, where rank orders (rule, direction) pairs by rule
        text, LR before RL; and every pair a FREE_RED LR step deletes,
        mapped to its rule.  Segments and replacements are code strings
        (see :data:`_CODES`).  Built once, on first use."""
        if self._index is None:
            segments: dict[str, list] = {}
            cancel: dict[str, Rule] = {}
            for i, rule in enumerate(sorted(self._rules.values(), key=Rule.render)):
                if rule.family == "FREE_RED":
                    cancel.update(dict.fromkeys(
                        (_encode(pair, _CODES) for pair in rule.moves[Direction.LR].table), rule))
                    continue
                for rank, move in enumerate(rule.moves.values(), start=2 * i):
                    for segment, repl in move.table.items():
                        segments.setdefault(_encode(segment, _CODES), []).append(
                            (rank, rule, move.direction, _encode(repl, _CODES)))
            # a child can then cancel only where its replacement meets the word
            if any(r[j:j + 2] in cancel for found in segments.values()
                   for _, _, _, r in found for j in range(len(r) - 1)):
                raise ValueError(f"a replacement of {self.name!r} is not freely reduced")
            self._index = _SegmentIndex(segments, tuple(sorted({len(s) for s in segments})),
                                        cancel)
        return self._index


#: Each rule instance, compiled once; every rule set holds these objects.
_RULES = {key: Rule(*key) for key in _RULE_KEYS}

#: The rule sets by name.
PRESENTATIONS = {name: Presentation(name, (_RULES[key] for key in keys))
                 for name, keys in _RULE_SETS.items()}
_EVERY_RULE = Presentation("every-rule", _RULES.values())


def torus_presentation(with_h: bool = False) -> Presentation:
    """The mapping-class-group rules of the three-holed torus, plus the
    reflection conjugation; optionally extended by the commuting
    complement homeomorphism h."""
    return PRESENTATIONS["torus+h" if with_h else "torus"]


def even_power_presentation() -> Presentation:
    """Rules for the even-power certificates: the designated curve c and
    its neighbourhood-reversing homeomorphism s."""
    return PRESENTATIONS["even-power"]


def every_rule() -> Presentation:
    """Every rule of the table: for parsing a script whose allowed rules
    are checked later, against the claim it proves."""
    return _EVERY_RULE


# --- script text format ----------------------------------------------------
#
#   start: <word>
#   step <k>: <RULE>(<params>) <LR|RL> @ <position>
#   end: <word>
#
# Step labels count from 1, positions have no leading zero, words are
# spelled as str spells them, and every line ends with a line feed.


class ScriptSyntaxError(ValueError):
    pass


def fixture_path(name: str):
    """Path of a bundled proof-script fixture, e.g. ``chain_a.proof``."""
    return Path(__file__).parent / "fixtures" / name


#: Script lines are written and read this many at a time.
_CHUNK = 4096


def format_script(script: ProofScript, indent: str = "") -> str:
    """The one text of a script, each line prefixed by ``indent`` (``"  "``
    in a certificate's section).  Step lines are made and joined
    ``_CHUNK`` at a time, so no list of every line is made and the text
    is copied once, by the last join."""
    steps = script.steps
    parts = [f"{indent}start: {script.start}"]
    for i in range(0, len(steps), _CHUNK):
        parts.append("\n".join([f"{indent}step {k}: {rule.moves[d].text}{p}" for k, (rule, d, p)
                                in enumerate(steps[i:i + _CHUNK], start=i + 1)]))
    parts.append(f"{indent}end: {script.end}\n")
    return "\n".join(parts)


def parse_script(text: str, presentation: Presentation, first_line: int = 1,
                 indent: str = "", offset: int = 0) -> ProofScript:
    """Read the one text :func:`format_script` writes for a script, each
    line prefixed by ``indent`` (``"  "`` in a certificate's section),
    resolving rules against ``presentation``.  The script is ``text``
    from ``offset`` on, read in place.  Any other text is a
    :class:`ScriptSyntaxError` naming its first line that is not
    canonical, numbered from ``first_line``, the text's first line in
    its file."""
    script = _read_section(text, presentation, indent, offset)
    if script is None:
        i, message = _refusal(text[offset:], presentation, indent)
        raise ScriptSyntaxError(f"line {first_line + i}: {message}")
    return script


def _read_section(text: str, presentation: Presentation, indent: str,
                  offset: int) -> ProofScript | None:
    """The script of a canonical text, or None for any other text.  Step
    lines are read in windows of about ``_CHUNK`` lines, cut at a line
    feed: only the table from each distinct step text to its step and the
    list of steps grow with the step count.  Every pass over a window runs
    in C: one split, a ``startswith`` check, ``removeprefix`` of each
    label, and one lookup per line of the step shared by its text.  A
    new distinct text ``RULE(params) DIR @ pos`` is resolved by one table
    lookup of its text up to the position, and ``pos`` must be an ``int``
    as ``str`` spells it.  A step line without its own label keeps its
    ``"step "`` start, which no rule text has."""
    first = text.find("\n", offset) + 1  # where the step lines start
    last = text.rfind("\n", offset, len(text) - 1) + 1  # where the end line starts
    head, tail, step = indent + "start: ", indent + "end: ", indent + "step "
    if not (offset < first <= last and text.endswith("\n") and text.startswith(head, offset)
            and text.startswith(tail, last)):
        return None
    start = spelled_word(text[offset + len(head):first - 1])
    end = spelled_word(text[last + len(tail):-1])
    if start is None or end is None:
        return None
    label = f"{step}%d: ".__mod__
    shared: dict[str, ProofStep] = {}
    steps: list[ProofStep] = []
    width = _CHUNK * (text.find("\n", first) + 1 - first)  # chars of about _CHUNK lines
    while first < last:
        cut = text.rfind("\n", first, min(first + width, last)) + 1 or text.find("\n", first) + 1
        lines = text[first:cut - 1].split("\n")
        first = cut
        if not all(map(str.startswith, lines, repeat(step))):
            return None
        lines = list(map(str.removeprefix, lines, map(label, count(len(steps) + 1))))
        distinct = list(set(lines).difference(shared))
        texts = list(map(str.rstrip, distinct, repeat("0123456789")))
        named = list(map(presentation._step_texts.get, texts))
        if None in named:
            return None
        digits = list(map(str.removeprefix, distinct, texts))
        try:
            positions = list(map(int, digits))
        except ValueError:  # no digits
            return None
        if list(map(str, positions)) != digits:  # a leading zero
            return None
        # ProofStep(rule, direction, position) of each new distinct text, made in C
        shared.update(zip(distinct, map(tuple.__new__, repeat(ProofStep),
                                        map(tuple.__add__, named, zip(positions)))))
        steps += map(shared.__getitem__, lines)
    return ProofScript(start, tuple(steps), end)


def _refusal(text: str, presentation: Presentation, indent: str) -> tuple[int, str]:
    """The index of the first line of a refused text that is not
    canonical, and a message showing the line as found.  Where the
    canonical line is known it is shown as expected: a word :func:`word`
    reads, or a step text of ``presentation`` under another label or
    position spelling.  An unreadable word gets the word grammar's
    message, and a rule ``presentation`` lacks the :class:`UnknownRule` one."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        prefix = indent + ("end: " if i else "start: ")
        if line.startswith(prefix):
            try:
                want = prefix + str(word(line[len(prefix):]))
            except WordSyntaxError as exc:
                return i, str(exc)
            if i and i + 1 == len(lines):
                want += "\n"  # the end line ends with a line feed
            if line != want:
                return i, f"expected {want!r}, found {line!r}"
            if i:  # and nothing follows it
                return i + 1, f"expected the end of the text, found {lines[i + 1]!r}"
            continue
        if not i:
            return 0, f"cannot parse {line!r}"
        if i + 1 == len(lines) and not line:
            break  # the text ends with no end line
        body = line.partition(": ")[2]
        head = body.rstrip("0123456789")
        if head != body and head in presentation._step_texts:
            want = f"{indent}step {i}: {head}{body[len(head):].lstrip('0') or '0'}"
            if line != want:
                return i, f"expected {want!r}, found {line!r}"
            continue
        family, _, rest = head.partition("(")
        params, _, direction = rest.partition(") ")
        if (head != body and direction in ("LR @ ", "RL @ ")
                and family.isidentifier() and family.isupper()):
            try:  # head is no step text of presentation, so this raises
                presentation.rule(family, tuple(params.split(",")) if params else ())
            except UnknownRule as exc:
                return i, str(exc)
        return i, f"cannot parse {line!r}"
    last = len(lines) - 1 if lines[-1] else len(lines) - 2
    return last, f"expected an end line after {lines[last]!r}"


# --- bounded bidirectional search -------------------------------------------


@dataclass(frozen=True)
class EqualityResult:
    status: str  # "equal" | "unknown"
    witness: ProofScript | None


#: Search words may grow this many letters past the longer input word.
SEARCH_SLACK = 8


def _reduce(head: str, middle: str, tail: str, cancel: dict[str, Rule]
            ) -> tuple[str, tuple[ProofStep, ...]]:
    """Freely reduce the code string head + middle + tail, where head and
    tail are reduced, as ``(word, steps)``: the FREE_RED LR steps, each at
    its position in the word as it stands when the step applies.

    A stack starts as head and takes middle's letters one at a time,
    then tail's until one stays: the rest of tail is reduced already."""
    stack = list(head)
    steps = []
    for c in middle:
        if stack and stack[-1] + c in cancel:
            steps.append(ProofStep(cancel[stack.pop() + c], Direction.LR, len(stack)))
        else:
            stack.append(c)
    i = 0
    while i < len(tail) and stack and stack[-1] + tail[i] in cancel:
        steps.append(ProofStep(cancel[stack.pop() + tail[i]], Direction.LR, len(stack)))
        i += 1
    return "".join(stack) + tail[i:], tuple(steps)


def _neighbours(node: str, index: _SegmentIndex, limit: int
                ) -> list[tuple[str, Rule, Direction, int, tuple[ProofStep, ...]]]:
    """Every one-step rewrite of the reduced code string ``node`` by a rule
    other than FREE_RED, whose spliced word has at most ``limit`` letters,
    as ``(child, rule, direction, position, reductions)``: ``child`` is
    the spliced word freely reduced by the FREE_RED LR steps
    ``reductions``.

    At each position, one lookup per pattern length finds every rule that
    fires there, and the child is built at once as head + replacement +
    tail.  Replacements are reduced (see :meth:`Presentation._segment_index`),
    so a child can cancel only at the two splice boundaries.  The
    rewrites come in (rule text, LR before RL, position) order, the order
    of trying every rule at every position; each rule and direction fires
    at most once per position, so the order is total."""
    segments, lengths, cancel = index
    n = len(node)
    hits = []
    for pos in range(n):
        head = node[:pos]
        for k in lengths:
            if pos + k > n:
                break
            found = segments.get(node[pos:pos + k])
            if found is not None:
                tail = node[pos + k:]
                room = limit - n + k  # the longest replacement that fits
                for rank, rule, direction, repl in found:
                    if len(repl) <= room:
                        child = head + repl + tail
                        end = pos + len(repl)
                        if ((pos and child[pos - 1:pos + 1] in cancel)
                                or child[end - 1:end + 1] in cancel):
                            child, reductions = _reduce(head, repl, tail, cancel)
                        else:
                            reductions = ()
                        hits.append((rank, pos, child, rule, direction, reductions))
    hits.sort()  # (rank, pos) is unique, so no two hits compare further
    return [(child, rule, direction, pos, reductions)
            for _, pos, child, rule, direction, reductions in hits]


def equal_modulo_rules(u: Word, v: Word, budget: int,
                       presentation: Presentation | None = None) -> EqualityResult:
    """Breadth-first bidirectional search for a rewrite path from u to v.

    Returns "equal" only with a replayable script as witness; "unknown"
    never asserts inequality.  The search runs over freely reduced words,
    in which no FREE_RED LR rule of the rule set matches: u and v are
    reduced first, and each child is reduced as it is made (see
    :func:`_neighbours`).  ``budget``, a positive ``int``, caps the
    number of expanded reduced words; a child whose word before reduction
    is longer than max(|u|,|v|) + SEARCH_SLACK is pruned, so no word the
    witness passes through is longer.  The search runs over code strings,
    one character per letter (see :data:`_CODES`; a letter outside that
    table gets a code for this call only, and never cancels), and records
    each word's step and reductions.  The witness is u to reduce(u), the
    u-side steps, the v-side steps inverted, and reduce(v) to v inverted.
    Rewrites are tried in (rule text, direction, position) order, so the
    first path found, and the witness, depend only on the words, the
    budget and the rule set.
    """
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise TypeError(f"budget must be an int, got {budget!r}")
    if budget <= 0:
        raise ValueError("budget must be positive")
    pres = presentation if presentation is not None else torus_presentation(with_h=True)
    index = pres._segment_index()
    limit = max(len(u), len(v)) + SEARCH_SLACK
    codes = dict(_CODES)  # a letter outside the table gets a code for this call only
    for lt in (*u.letters, *v.letters):
        codes.setdefault(lt, chr(ord("A") + len(codes)))
    start, u_reductions = _reduce("", _encode(u.letters, codes), "", index.cancel)
    goal, v_reductions = _reduce("", _encode(v.letters, codes), "", index.cancel)

    # parents[side][word] = (previous word, rule, direction, position,
    # reductions) of the step that produced it; the rule's ProofStep is
    # made only for the witness
    parents: list[dict[str, tuple[str, Rule, Direction, int, tuple[ProofStep, ...]] | None]]
    parents = [{start: None}, {goal: None}]
    frontiers = [[start], [goal]]
    expanded = 0
    meet: str | None = start if start in parents[1] else None

    while meet is None and expanded < budget and (frontiers[0] or frontiers[1]):
        side = 0 if (len(frontiers[0]) <= len(frontiers[1]) and frontiers[0]) or not frontiers[1] else 1
        seen, other = parents[side], parents[1 - side]
        next_frontier: list[str] = []
        for node in frontiers[side]:
            if meet is not None or expanded >= budget:
                break
            expanded += 1
            for child, rule, direction, pos, reductions in _neighbours(node, index, limit):
                if child in seen:
                    continue
                seen[child] = (node, rule, direction, pos, reductions)
                next_frontier.append(child)
                if child in other:
                    meet = child
                    break
        frontiers[side] = next_frontier

    if meet is None:
        return EqualityResult("unknown", None)

    forward: list[ProofStep] = []  # reduce(u) ..> meet, built back to front
    node = meet
    while parents[0][node] is not None:
        node, rule, direction, pos, reductions = parents[0][node]  # type: ignore[misc]
        forward[:0] = (ProofStep(rule, direction, pos), *reductions)
    backward: list[ProofStep] = []  # meet ..> reduce(v) by inverting v-side steps
    node = meet
    while parents[1][node] is not None:
        node, rule, direction, pos, reductions = parents[1][node]  # type: ignore[misc]
        backward += [s.inverted() for s in reversed(reductions)]
        backward.append(ProofStep(rule, direction, pos).inverted())
    unreduce_v = [s.inverted() for s in reversed(v_reductions)]
    script = ProofScript(u, (*u_reductions, *forward, *backward, *unreduce_v), v)
    report = verify_script(script)
    if not report.ok:  # pragma: no cover - internal consistency guard
        raise AssertionError(f"search produced a broken witness: {report}")
    return EqualityResult("equal", script)
