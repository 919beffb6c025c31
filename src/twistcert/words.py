"""Value-semantic group words over the generators in ``GENERATORS``.

``GENERATORS`` maps each name a word may use to its kind; parsing rejects
any other name, and every layer that asks what a generator is reads it.

A word is a finite sequence of signed letters.  Words are *not* reduced on
construction: the rewriting layer works with literal letter sequences and
performs every cancellation as an explicit step.  Group-level operations
(`free_reduce`, `invert`, `power`, `commutator`) return reduced words.

The reflection ``r`` is the one involution (r^2 = 1); free reduction
normalises its exponent to +1 and cancels adjacent ``r r`` pairs.  This is
the only torsion relation living at the word layer; everything else
belongs to the rewrite-rule layer.

Word text grammar (bit-exact):

    word    = token*                     (whitespace separated; empty = identity)
    token   = name | name "^-1" | "(" word ")^" int
    name    = [a-z][a-z0-9]*

Parenthesised powers are expanded with :func:`power` at parse time.  A
word is rejected before the expansion that would make it longer than
``MAX_EXPANDED_LETTERS`` letters, or make its group expansions, at every
depth and counted before reduction, total more than that.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple


class WordSyntaxError(ValueError):
    """Raised for text that does not match the word grammar."""


_NAME_RE = re.compile(r"[a-z][a-z0-9]*")

#: No group power may expand a word past this many letters.  The largest
#: word a certificate needs, [P^n, Y], has 14|n| + 4 letters.
MAX_EXPANDED_LETTERS = 2 ** 20

#: The twists about the curves of the three-holed torus, the reflection r,
#: the crosscap slide h, and the generic twist c with its curve reverser s.
GENERATORS = {
    "b": "twist", "a1": "twist", "a2": "twist", "a3": "twist",
    "c1": "twist", "c2": "twist", "c3": "twist",
    "r": "reflection", "h": "crosscap-slide", "c": "twist", "s": "curve-reverser",
}


class Letter(NamedTuple("Letter", [("name", str), ("sign", int)])):
    """A generator name with the sign +1 or -1; a letter equals its
    ``(name, sign)`` pair."""

    __slots__ = ()

    def __new__(cls, name: str, sign: int) -> "Letter":
        if sign not in (1, -1) or type(sign) is not int:
            raise ValueError(f"a letter's sign is +1 or -1, not {sign!r}")
        return tuple.__new__(cls, (name, sign))

    @classmethod
    def _make(cls, iterable) -> "Letter":
        # NamedTuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

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


#: Every signed letter by its one spelling, e.g. "a1^-1".
_SPELLINGS = {str(lt): lt for lt in (Letter(name, sign) for name in GENERATORS
                                     for sign in (1, -1))}


def spelled_word(text: str) -> Word | None:
    """The word of ``GENERATORS`` letters whose ``str`` is ``text``, or
    None if there is none: one dictionary lookup per letter, for text that
    a word wrote.  Other text is for :func:`word` to read or refuse."""
    if not text:
        return Word()
    letters = tuple(map(_SPELLINGS.get, text.split(" ")))
    return None if None in letters else Word(letters)


def word(text: str) -> Word:
    """Parse the word grammar.  Unknown generator names are rejected, and
    so are groups nested deeper than the parser's recursion reaches."""
    tokens = text.split()
    try:
        return Word(tuple(_parse_tokens(tokens, 0, len(tokens), [MAX_EXPANDED_LETTERS])))
    except RecursionError:
        raise WordSyntaxError("groups are nested too deeply") from None


def _parse_tokens(tokens: list[str], lo: int, hi: int, budget: list[int]) -> list[Letter]:
    """Parse ``tokens[lo:hi]``.  ``budget[0]`` is how many more letters the
    group expansions of the whole word, at every depth, may produce: a
    group whose expansion cancels or vanishes still costs its letters."""
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
            inner = Word(tuple(_parse_tokens(tokens, i + 1, j, budget)))
            k = int(m.group(1))
            # an empty group counts as one letter, so |k| is bounded too
            expansion = abs(k) * max(len(inner), 1)
            if len(out) + expansion > MAX_EXPANDED_LETTERS:
                raise WordSyntaxError(f"group power ^{k} would expand the word past "
                                      f"{MAX_EXPANDED_LETTERS} letters")
            if expansion > budget[0]:
                raise WordSyntaxError(f"group power ^{k} would take the word's group "
                                      f"expansions past {MAX_EXPANDED_LETTERS} letters")
            budget[0] -= expansion
            out.extend(power(inner, k).letters)
            i = j + 1
        elif tok.startswith(")"):
            raise WordSyntaxError("unbalanced ')' in word")
        else:
            lt = letter(tok)
            if lt.name not in GENERATORS:
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
    if GENERATORS.get(a.name) == "reflection":
        return True  # signs are already normalised to +1
    return a.sign == -b.sign


def free_reduce(w: Word) -> Word:
    """Unique reduced form: cancel adjacent inverse pairs, r r pairs, and
    normalise involution exponents to +1.  Idempotent; never lengthens."""
    out: list[Letter] = []
    for lt in w.letters:
        if lt.sign < 0 and GENERATORS.get(lt.name) == "reflection":
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
