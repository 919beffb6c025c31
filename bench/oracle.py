"""Known answers for the benchmark, written from PAPER.md and not from the
code under test.

Nothing here imports ``twistcert``.  The oracle works on text: the
certificate format (``key: value`` lines with the proof script inlined
after ``script:``) and the word grammar of expanded letters.  It supplies

* the claim a genuine certificate must make (target, x and y for the
  requested n, flavour and curve);
* the verdict the genus bounds of PAPER.md give for a request, or
  ``None`` when those bounds do not decide it;
* an independent replayer of the eight rule families, used to decide
  whether a tampered script still proves its claim and to confirm the
  rewrite walks that make the known-equal search pairs;
* the five tamper classes applied to a certificate text.
"""

from __future__ import annotations

import random
import re

TWISTS = ("b", "a1", "a2", "a3", "c1", "c2", "c3")
P = ("b", "a2", "a3", "b", "a1", "a2", "c2^-1")
SIGMA = {"b": "b", "a1": "a1", "a2": "a3", "a3": "a2", "c1": "c1", "c2": "c3", "c3": "c2"}
STAR_RHS = ("b", "a1", "a2", "a3") * 3

TAMPER_CLASSES = ("shift", "end_letter", "edit_n", "empty_claim", "homology_fail")


# --- words as letter tuples -------------------------------------------------

Letter = tuple[str, int]


def parse_letters(text: str) -> tuple[Letter, ...]:
    out = []
    for tok in text.split():
        out.append((tok[:-3], -1) if tok.endswith("^-1") else (tok, 1))
    return tuple(out)


def render(letters) -> str:
    return " ".join(name if sign > 0 else f"{name}^-1" for name, sign in letters)


def inverse_tokens(tokens: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(t[:-3] if t.endswith("^-1") else t + "^-1" for t in reversed(tokens))


def power_text(tokens: tuple[str, ...], n: int) -> str:
    """The n-th power of a cyclically reduced word, written out letter by letter."""
    base = tokens if n >= 0 else inverse_tokens(tokens)
    return " ".join(base * abs(n))


# --- the claim ----------------------------------------------------------------


def expected_claim(flavor: str, curve: str, surface: str, n: int) -> dict[str, str]:
    """target, x and y of the certificate PAPER.md promises for a request.

    Theorem-1 style: c1^n = [(b a2 a3 b a1 a2 c2^-1)^n, Y] with Y = a1^-1 r,
    or a1^-1 r h in the twist subgroup when the reflection's determinant is
    -1 or unrecorded.  The orientable-complement embedding (genus 2(k+3))
    records det(r) = (-1)^k: the reflection negates b, d and e1..ek and
    fixes or shears the rest, so at genus 2 mod 4 (k even) it is +1.  The
    separating and nonorientable-complement embeddings record no value.
    Even powers: c^(2n) = [c^n, s].
    """
    if flavor.startswith("even-power"):
        return {"target": power_text(("c",), 2 * n), "x": power_text(("c",), n), "y": "s"}
    y = "a1^-1 r"
    if flavor == "twist-subgroup":
        genus = int(surface.split(":")[1])
        if curve != "nonsep:oc" or (genus // 2 - 3) % 2:
            y = "a1^-1 r h"
    return {"target": power_text(("c1",), n), "x": power_text(P, n), "y": y}


# --- refusals -----------------------------------------------------------------


def expected_admissible(surface: str, curve: str, flavor: str) -> bool | None:
    """What the genus bounds of PAPER.md say about a request: True for a
    certificate, False for an out-of-scope refusal, None when the bounds do
    not decide it.  Requests the program calls unrealizable are never
    passed here: PAPER.md states no realizability rules."""
    orientable = surface.startswith("o")
    genus = int(surface.split(":")[1])
    if flavor == "extended-group":
        return genus >= (3 if orientable else 7)
    if flavor == "twist-subgroup":
        if orientable:
            return False
        if genus < 7:
            return None  # the twist-subgroup bounds start at genus 7
        if curve.startswith("sep:"):
            return True
        if curve == "nonsep:oc":
            return genus % 4 == 2
        return genus >= 8  # nonorientable complement; genus 7 is conjectural
    if flavor == "even-power-extended":
        return True
    # even-power-twist: a nonorientable complement piece of genus >= 2
    if orientable or curve == "nonsep:oc":
        return False
    if curve.startswith("sep:"):
        return any(side.startswith("n") and int(side[1:]) >= 2
                   for side in curve[len("sep:"):].split("+"))
    return genus - 2 >= 2


def expected_conjectural(surface: str, curve: str, flavor: str) -> bool:
    """The two excluded twist-subgroup families PAPER.md flags conjectural."""
    if flavor != "twist-subgroup" or surface.startswith("o"):
        return False
    genus = int(surface.split(":")[1])
    if curve == "nonsep:oc":
        return genus % 4 == 0 and genus >= 8
    return curve in ("nonsep", "nonsep:nc") and genus == 7


# --- certificate text ---------------------------------------------------------


def fields(text: str) -> dict[str, str]:
    """The key: value header of a certificate text."""
    out = {}
    for line in text.split("\nscript:\n", 1)[0].splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


def claim_mismatches(text: str, flavor: str, curve: str, surface: str, n: int) -> list[str]:
    """Fields of a genuine certificate that differ from the known answer."""
    head = fields(text)
    want = dict(expected_claim(flavor, curve, surface, n), n=str(n), flavor=flavor)
    want["homology-check"] = "pass"
    return [key for key, value in want.items() if head.get(key) != value]


_STEP_RE = re.compile(r"\s*step (\d+): ([A-Z_]+)\(([^)]*)\) (LR|RL) @ (\d+)$")


def script_of(text: str):
    """(start, steps, end) of the script inlined in a certificate or script
    text; each step is (family, params, direction, position)."""
    start = end = None
    steps = []
    body = text.split("\nscript:\n", 1)[-1]
    for line in body.splitlines():
        stripped = line.strip()
        if stripped.startswith("start:"):
            start = parse_letters(stripped[len("start:"):])
        elif stripped.startswith("end:"):
            end = parse_letters(stripped[len("end:"):])
        elif stripped:
            m = _STEP_RE.match(line)
            if m is None:
                raise ValueError(f"cannot read step line {line!r}")
            _, family, params, direction, pos = m.groups()
            steps.append((family, tuple(p.strip() for p in params.split(",") if p.strip()),
                          direction, int(pos)))
    return start, steps, end


# --- an independent replayer -----------------------------------------------------


def _swap(first: str, second: str, seg, direction):
    if direction == "RL":
        first, second = second, first
    if seg[0][0] == first and seg[1][0] == second:
        return (seg[1], seg[0])
    return None


def _braid(params, seg, direction):
    outer, inner = params if direction == "LR" else params[::-1]
    e = seg[0][1]
    if [lt[0] for lt in seg] == [outer, inner, outer] and seg[1][1] == e and seg[2][1] == e:
        return ((inner, e), (outer, e), (inner, e))
    return None


def _star(params, seg, direction):
    small = (("c1", 1), ("c2", 1), ("c3", 1))
    big = tuple((g, 1) for g in STAR_RHS)
    pairs = [(small, big), (tuple((g, -1) for g, _ in reversed(small)),
                            tuple((g, -1) for g, _ in reversed(big)))]
    for lhs, rhs in pairs:
        src, dst = (lhs, rhs) if direction == "LR" else (rhs, lhs)
        if seg == src:
            return dst
    return None


def _conj_reflect(params, seg, direction):
    (g,) = params
    if direction == "LR":
        if seg[0] == ("r", 1) and seg[2] == ("r", 1) and seg[1][0] == g:
            return ((SIGMA[g], -seg[1][1]),)
    elif seg[0][0] == SIGMA[g]:
        return (("r", 1), (g, -seg[0][1]), ("r", 1))
    return None


def _reverse_s(params, seg, direction):
    (c,) = params
    if direction == "LR":
        if seg[0] == ("s", 1) and seg[2] == ("s", -1) and seg[1][0] == c:
            return ((c, -seg[1][1]),)
    elif seg[0][0] == c:
        return (("s", 1), (c, -seg[0][1]), ("s", -1))
    return None


def _free_red(params, seg, direction):
    name, sign = parse_letters(params[0])[0]
    pair = (("r", 1), ("r", 1)) if name == "r" else ((name, sign), (name, -sign))
    if direction == "LR":
        return () if seg == pair else None
    return pair


# family -> (pattern length LR, pattern length RL, rewrite)
FAMILIES = {
    "COMMUTE": (2, 2, lambda p, s, d: _swap(p[0], p[1], s, d)),
    "CENTRAL": (2, 2, lambda p, s, d: _swap(p[0], p[1], s, d)),
    "COMMUTE_H": (2, 2, lambda p, s, d: _swap("h", p[0], s, d)),
    "BRAID": (3, 3, _braid),
    "STAR": (3, 12, _star),
    "CONJ_REFLECT": (3, 1, _conj_reflect),
    "REVERSE_S": (3, 1, _reverse_s),
    "FREE_RED": (2, 0, _free_red),
}


def replay(start, steps, end) -> bool:
    """Replay a script from the relations themselves; True iff every step
    matches and the last word is the declared end."""
    word = list(start)
    for family, params, direction, pos in steps:
        lr_len, rl_len, rewrite = FAMILIES[family]
        span = lr_len if direction == "LR" else rl_len
        if pos < 0 or pos + span > len(word):
            return False
        repl = rewrite(params, tuple(word[pos:pos + span]), direction)
        if repl is None:
            return False
        word[pos:pos + span] = repl
    return tuple(word) == tuple(end)


def peak_length(start_len: int, steps) -> int:
    """Longest word a script passes through, from the pattern lengths alone."""
    length = peak = start_len
    for family, _, direction, _ in steps:
        lr_len, rl_len, _ = FAMILIES[family]
        length += (rl_len - lr_len) if direction == "LR" else (lr_len - rl_len)
        peak = max(peak, length)
    return peak


# --- tampering ----------------------------------------------------------------------


def _replace_field(text: str, key: str, value: str) -> str:
    head, sep, script = text.partition("\nscript:\n")
    lines = [f"{key}: {value}" if line.split(":", 1)[0] == key else line
             for line in head.splitlines()]
    return "\n".join(lines) + sep + script


def tamper(text: str, cls: str, rng: random.Random) -> tuple[str, bool]:
    """A tampered copy of a genuine certificate text and whether a sound
    verifier must reject it.  Only a shifted step can leave a valid proof;
    the independent replayer decides that case."""
    head, _, script = text.partition("\nscript:\n")
    lines = script.splitlines()
    if cls == "shift":
        steps = [i for i, line in enumerate(lines) if line.startswith("  step ")]
        i = rng.choice(steps)
        prefix, _, pos = lines[i].rpartition(" @ ")
        new = int(pos) + 1 if int(pos) == 0 or rng.random() < 0.5 else int(pos) - 1
        lines[i] = f"{prefix} @ {new}"
        out = head + "\nscript:\n" + "\n".join(lines) + "\n"
        return out, not replay(*script_of(out))
    if cls == "end_letter":
        j = next(i for i, line in enumerate(lines) if line.startswith("  end:"))
        letters = list(parse_letters(lines[j][len("  end:"):]))
        if letters:
            k = rng.randrange(len(letters))
            letters[k] = (letters[k][0], -letters[k][1])
        else:
            letters = [("c", 1)] if fields(text)["flavor"].startswith("even") else [("c1", 1)]
        lines[j] = f"  end: {render(letters)}"
        return head + "\nscript:\n" + "\n".join(lines) + "\n", True
    if cls == "edit_n":
        n = int(fields(text)["n"])
        return _replace_field(text, "n", str(n + rng.choice((-2, -1, 1, 2)))), True
    if cls == "empty_claim":
        out = head
        for key in ("target", "x", "y"):
            out = _replace_field(out, key, "")
        return out + "\nscript:\n  start: \n  end: \n", True
    if cls == "homology_fail":
        return _replace_field(text, "homology-check", "fail"), True
    raise ValueError(f"unknown tamper class {cls!r}")
