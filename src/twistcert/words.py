"""Value-semantic group words over a named generator alphabet.

A word is a finite sequence of signed letters.  Words are *not* reduced on
construction: the rewriting layer works with literal letter sequences and
performs every cancellation as an explicit step.  Group-level operations
(`free_reduce`, `invert`, `power`, `commutator`) return reduced words.

The generator ``r`` is an involution (r^2 = 1); free reduction normalises
its exponent to +1 and cancels adjacent ``r r`` pairs.  This is the only
torsion relation living at the word layer; everything else belongs to the
rewrite-rule layer.

Word text grammar (bit-exact):

    word    = token*                     (whitespace separated; empty = identity)
    token   = name | name "^-1" | "(" word ")^" int
    name    = [a-z][a-z0-9]*

Parenthesised powers are expanded with :func:`power` at parse time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple


class WordSyntaxError(ValueError):
    """Raised for text that does not match the word grammar."""


class GeneratorKind(Enum):
    TWIST = "twist"
    REFLECTION = "reflection"
    COMPLEMENT_HOMEO = "complement-homeo"
    CURVE_REVERSER = "curve-reverser"


_NAME_RE = re.compile(r"[a-z][a-z0-9]*")


@dataclass(frozen=True)
class Generator:
    """A named generator.  Twists carry the name of the curve they twist about."""

    name: str
    kind: GeneratorKind
    curve: str | None = None

    def __post_init__(self) -> None:
        if not _NAME_RE.fullmatch(self.name):
            raise ValueError(f"invalid generator name {self.name!r}")
        if self.kind is GeneratorKind.TWIST:
            if self.curve is None:
                raise ValueError(f"twist generator {self.name!r} needs a curve name")
        elif self.curve is not None:
            raise ValueError(f"non-twist generator {self.name!r} cannot carry a curve")


class Alphabet:
    """Immutable name -> Generator table."""

    def __init__(self, generators: Iterable[Generator]):
        table: dict[str, Generator] = {}
        for gen in generators:
            if gen.name in table:
                raise ValueError(f"duplicate generator name {gen.name!r}")
            table[gen.name] = gen
        self._table = table

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def __getitem__(self, name: str) -> Generator:
        return self._table[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._table)

    def names(self) -> tuple[str, ...]:
        return tuple(self._table)

    def is_involution(self, name: str) -> bool:
        gen = self._table.get(name)
        return gen is not None and gen.kind is GeneratorKind.REFLECTION


def twist(name: str, curve: str | None = None) -> Generator:
    return Generator(name, GeneratorKind.TWIST, curve if curve is not None else name)


#: Default alphabet: twists about the curves of the three-holed torus, the
#: reflection r, the complement homeomorphism h (a crosscap slide), the
#: generic twist c and its neighbourhood-reversing homeomorphism s.
DEFAULT_ALPHABET = Alphabet(
    [
        twist("b"),
        twist("a1"),
        twist("a2"),
        twist("a3"),
        twist("c1"),
        twist("c2"),
        twist("c3"),
        Generator("r", GeneratorKind.REFLECTION),
        Generator("h", GeneratorKind.COMPLEMENT_HOMEO),
        twist("c"),
        Generator("s", GeneratorKind.CURVE_REVERSER),
    ]
)


class Letter(NamedTuple):
    name: str
    sign: int  # +1 or -1

    def inverse(self) -> "Letter":
        return Letter(self.name, -self.sign)

    def __str__(self) -> str:
        return self.name if self.sign > 0 else f"{self.name}^-1"


def letter(token: str) -> Letter:
    """Parse a single signed-letter token such as ``a1`` or ``a1^-1``."""
    if token.endswith("^-1"):
        name, sign = token[:-3], -1
    else:
        name, sign = token, 1
    if not _NAME_RE.fullmatch(name):
        raise WordSyntaxError(f"invalid letter token {token!r}")
    return Letter(name, sign)


@dataclass(frozen=True)
class Word:
    """An immutable sequence of letters; the empty word is the identity."""

    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __str__(self) -> str:
        return " ".join(str(lt) for lt in self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return free_reduce(concat(self, other))

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, n: int) -> "Word":
        return power(self, n)

    def is_reduced(self) -> bool:
        return free_reduce(self) == self


def word(text: str) -> Word:
    """Parse the word grammar.  Unknown generator names are rejected."""
    tokens = text.split()
    return Word(tuple(_parse_tokens(tokens, 0, len(tokens))))


def _parse_tokens(tokens: list[str], lo: int, hi: int) -> list[Letter]:
    out: list[Letter] = []
    i = lo
    while i < hi:
        tok = tokens[i]
        if tok == "(":
            depth, j = 1, i + 1
            while j < hi and depth:
                if tokens[j] == "(":
                    depth += 1
                elif tokens[j].startswith(")"):
                    depth -= 1
                if depth:
                    j += 1
            if depth:
                raise WordSyntaxError("unbalanced '(' in word")
            close = tokens[j]
            m = re.fullmatch(r"\)\^(-?\d+)", close)
            if not m:
                raise WordSyntaxError(f"expected ')^<int>' after group, found {close!r}")
            inner = Word(tuple(_parse_tokens(tokens, i + 1, j)))
            out.extend(power(inner, int(m.group(1))).letters)
            i = j + 1
        elif tok.startswith(")"):
            raise WordSyntaxError("unbalanced ')' in word")
        else:
            lt = letter(tok)
            if lt.name not in DEFAULT_ALPHABET:
                raise WordSyntaxError(f"unknown generator {lt.name!r}")
            out.append(lt)
            i += 1
    return out


def concat(*words: Word) -> Word:
    """Literal concatenation, no reduction."""
    letters: list[Letter] = []
    for w in words:
        letters.extend(w.letters)
    return Word(tuple(letters))


def _cancels(a: Letter, b: Letter) -> bool:
    if a.name != b.name:
        return False
    if DEFAULT_ALPHABET.is_involution(a.name):
        return True  # signs are already normalised to +1
    return a.sign == -b.sign


def free_reduce(w: Word) -> Word:
    """Unique reduced form: cancel adjacent inverse pairs, r r pairs, and
    normalise involution exponents to +1.  Idempotent; never lengthens."""
    out: list[Letter] = []
    for lt in w.letters:
        if lt.sign < 0 and DEFAULT_ALPHABET.is_involution(lt.name):
            lt = Letter(lt.name, 1)
        if out and _cancels(out[-1], lt):
            out.pop()
        else:
            out.append(lt)
    return Word(tuple(out))


def invert(w: Word) -> Word:
    """Group inverse (reduced): reverse the word and invert each letter."""
    return free_reduce(Word(tuple(lt.inverse() for lt in reversed(w.letters))))


def power(w: Word, n: int) -> Word:
    """n-th power, reduced.  Negative n raises the inverse to |n|."""
    base = invert(w) if n < 0 else free_reduce(w)
    return free_reduce(concat(*([base] * abs(n))))


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x y x^-1 y^-1, reduced."""
    return free_reduce(concat(x, y, invert(x), invert(y)))


def conjugate(w: Word, by: Word) -> Word:
    """by . w . by^-1, reduced."""
    return free_reduce(concat(by, w, invert(by)))
