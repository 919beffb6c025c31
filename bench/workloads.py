"""The three workloads: their seeded inputs and one pass over them.

A pass returns the duration of every op it timed, the wrong verdicts it
found and the exact counts of what the program produced.  Ops call the
package through its module attributes, so a traced pass sees them.

* ``large-n`` -- a few theorem-1/theorem-2 certificates at large n, where
  script steps grow as n^2 and time as n^3; apply_rule dominates.
* ``sweep``   -- every (surface, curve spelling, flavour) request over
  o:1..o:8 and n:1..n:24 at a seeded n in [-8, 8], each certificate
  verified, plus one seeded tampered copy of it; fixed per-certificate
  costs (homology shadow, case selection, text format and parse) dominate.
* ``search``  -- seeded pairs for equal_modulo_rules at one budget: rule
  matching at every position of every expanded word.
"""

from __future__ import annotations

import random
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import oracle

LARGE_N = (
    ("o:3", "nonsep", 32, "extended-group"),
    ("o:3", "nonsep", 64, "extended-group"),
    ("o:3", "nonsep", 128, "extended-group"),
    # forced rh: exercises COMMUTE_H and the mirrored chains
    ("n:8", "nonsep:nc", -64, "twist-subgroup"),
)
SWEEP_GENERA = {"o": 8, "n": 24}
SWEEP_MAX_N = 8
FLAVORS = ("extended-group", "twist-subgroup", "even-power-extended", "even-power-twist")

SEARCH_BUDGET = 60
SEARCH_EQUAL = 20
SEARCH_UNEQUAL = 40
SEARCH_LENGTHS = range(4, 11)
SEARCH_WALK = range(1, 9)

# Tamper classes today's verifier accepts (ROADMAP item 2).  Their wrong
# verdicts are reported in failed_share and the wrong.tamper.* counts but
# do not fail the run; a wrong verdict in any other class does.
KNOWN_VERIFIER_GAPS = frozenset({"edit_n", "empty_claim", "homology_fail"})


@dataclass(frozen=True)
class Request:
    surface: str
    curve: str
    n: int
    flavor: str
    tamper: str | None = None
    tamper_seed: int = 0


@dataclass(frozen=True)
class SearchPair:
    u: str
    v: str
    equal: bool


@dataclass
class PassResult:
    ops: list[tuple[str, float]] = field(default_factory=list)
    wrong: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)  # unexpected exceptions
    counts: Counter = field(default_factory=Counter)
    # steps of the extended-group certificates by n, for n > 0
    growth: dict[int, int] = field(default_factory=dict)

    def fail(self, op_input, exc: Exception) -> None:
        self.wrong["exception"] += 1
        self.errors.append(f"{op_input}: {traceback.format_exception_only(exc)[-1].strip()}")


# --- inputs -------------------------------------------------------------------------


def curve_spellings(orientable: bool, genus: int) -> list[str]:
    """nonsep, nonsep:oc, nonsep:nc and every unordered side split whose
    genus contributions add up to the surface genus."""
    out = ["nonsep", "nonsep:oc", "nonsep:nc"]
    if orientable:
        out += [f"sep:o{i}+o{genus - i}" for i in range(1, genus // 2 + 1)]
    else:
        out += [f"sep:n{i}+n{genus - i}" for i in range(1, genus // 2 + 1)]
        out += [f"sep:o{i}+n{genus - 2 * i}" for i in range(1, (genus - 1) // 2 + 1)]
    return out


def large_n_inputs(seed: int, pkg) -> list[Request]:
    """Fixed requests; the seed does not change them."""
    return [Request(*spec) for spec in LARGE_N]


def sweep_inputs(seed: int, pkg) -> list[Request]:
    """Every request.  Each flavour draws its n without replacement from
    the values -8..8 repeated, so every seed uses each n about equally
    often: the seed moves which request gets which n, but the total work
    moves by a few percent at most."""
    rng = random.Random(seed)
    specs = [(f"{kind}:{genus}", curve, flavor)
             for kind, top in SWEEP_GENERA.items()
             for genus in range(1, top + 1)
             for curve in curve_spellings(kind == "o", genus)
             for flavor in FLAVORS]
    values = list(range(-SWEEP_MAX_N, SWEEP_MAX_N + 1))
    draws = {}
    for flavor in FLAVORS:
        pool = values * (len(specs) // len(FLAVORS) // len(values) + 1)
        rng.shuffle(pool)
        draws[flavor] = iter(pool)
    return [_sweep_request(rng, surface, curve, flavor, next(draws[flavor]))
            for surface, curve, flavor in specs]


def _sweep_request(rng: random.Random, surface: str, curve: str, flavor: str, n: int):
    # n = 0 gives a script without steps: nothing to shift
    classes = [c for c in oracle.TAMPER_CLASSES if n or c != "shift"]
    return Request(surface, curve, n, flavor, rng.choice(classes), rng.randrange(2 ** 32))


def _random_twist_word(rng: random.Random, length: int) -> list[tuple[str, int]]:
    letters: list[tuple[str, int]] = []
    while len(letters) < length:
        lt = (rng.choice(oracle.TWISTS), rng.choice((1, -1)))
        if not letters or letters[-1] != (lt[0], -lt[1]):
            letters.append(lt)
    return letters


def _walk(pkg, rng: random.Random, start, steps: int):
    """A seeded self-avoiding rewrite walk of non-FREE_RED steps, found
    with the public Rule.match and confirmed by the independent replayer."""
    rules = [r for r in pkg.torus_presentation(True).rules() if r.family != "FREE_RED"]
    Direction = pkg.Direction
    current = pkg.word(oracle.render(start)).letters
    seen = {current}
    script = []
    for _ in range(steps):
        moves = []
        for rule in rules:
            for direction in (Direction.LR, Direction.RL):
                span = rule.pattern_len(direction)
                for pos in range(len(current) + 1):
                    repl = rule.match(current, pos, direction)
                    if repl is None or len(current) + len(repl) - span > len(start) + 4:
                        continue
                    child = current[:pos] + repl + current[pos + span:]
                    if child not in seen:  # the walk never revisits a word
                        moves.append((child, (rule.family, rule.params, direction.value, pos)))
        if not moves:
            break
        current, step = rng.choice(moves)
        seen.add(current)
        script.append(step)
    end = tuple((lt.name, lt.sign) for lt in current)
    if not oracle.replay(tuple(start), script, end):
        raise AssertionError("rewrite walk does not replay")
    return end


def search_inputs(seed: int, pkg) -> list[SearchPair]:
    """Known-equal pairs from rewrite walks; known-unequal pairs whose
    genus3-h homology images differ.  Word lengths and walk lengths are
    cycled rather than drawn, so every seed has the same mix of sizes."""
    rng = random.Random(seed)
    assignment = pkg.homology.ASSIGNMENTS["genus3-h"]()
    lengths = list(SEARCH_LENGTHS)
    walks = list(SEARCH_WALK)
    pairs = []
    for i in range(SEARCH_EQUAL):
        u = _random_twist_word(rng, lengths[i % len(lengths)])
        v = _walk(pkg, rng, u, walks[i % len(walks)])
        pairs.append(SearchPair(oracle.render(u), oracle.render(v), True))
    for i in range(SEARCH_UNEQUAL):
        u = _random_twist_word(rng, lengths[i % len(lengths)])
        while True:
            v = list(u)
            k = rng.randrange(len(v))
            v[k] = (rng.choice(oracle.TWISTS), rng.choice((1, -1)))
            image_u = pkg.evaluate_rep(pkg.word(oracle.render(u)), assignment)
            if image_u != pkg.evaluate_rep(pkg.word(oracle.render(v)), assignment):
                break
        pairs.append(SearchPair(oracle.render(u), oracle.render(v), False))
    rng.shuffle(pairs)
    return pairs


def fanout(pkg, pairs: list[SearchPair]) -> tuple[float, float]:
    """Mean number of one-step rewrites of a search start word, and the
    share of them that are FREE_RED, counted with the public Rule.match."""
    rules = pkg.torus_presentation(True).rules()
    Direction = pkg.Direction
    total = free = 0
    for pair in pairs:
        letters = pkg.word(pair.u).letters
        for rule in rules:
            for direction in (Direction.LR, Direction.RL):
                for pos in range(len(letters) + 1):
                    if rule.match(letters, pos, direction) is not None:
                        total += 1
                        free += rule.family == "FREE_RED"
    return total / len(pairs), free / total


# --- passes -----------------------------------------------------------------------------


def _count_script(result: PassResult, start_len: int, steps) -> None:
    result.counts["presentation.script_steps"] += len(steps)
    for family, *_ in steps:
        result.counts[f"presentation.steps.{family}"] += 1
    peak = oracle.peak_length(start_len, steps)
    result.counts["words.peak_word_len"] = max(result.counts["words.peak_word_len"], peak)


def _step_tuples(script):
    return [(s.rule.family, s.rule.params, s.direction.value, s.position) for s in script.steps]


def certificate_pass(pkg, requests: list[Request], tracer, tampered: dict) -> PassResult:
    """certify (build + format), verify (parse + verify) and, where the
    request carries one, verify a tampered copy."""
    certificates, cli = pkg.certificates, pkg.cli
    SurfaceSpec, CurveClass = pkg.SurfaceSpec, pkg.CurveClass
    OutOfScope, Unrealizable = pkg.OutOfScope, pkg.Unrealizable
    result = PassResult()
    clock = time.perf_counter
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.op_id = 3 * i
        refusal = None
        t0 = clock()
        try:
            cert = certificates.build_certificate(
                SurfaceSpec.parse(req.surface), CurveClass.parse(req.curve), req.n, req.flavor)
            text = cli.format_certificate(cert)
        except (OutOfScope, Unrealizable) as exc:
            refusal = exc
        except Exception as exc:  # an op boundary: record it and go on
            result.ops.append(("certify", clock() - t0))
            result.fail(req, exc)
            continue
        elapsed = clock() - t0

        if refusal is not None:
            result.ops.append(("refuse", elapsed))
            _check_refusal(result, req, refusal, OutOfScope)
            continue
        result.ops.append(("certify", elapsed))
        result.counts["certificates"] += 1
        result.counts["cert_bytes"] += len(text.encode())
        result.counts["presentation.script_bytes"] += len(text.partition("\nscript:\n")[2].encode())
        steps = _step_tuples(cert.script)
        _count_script(result, len(cert.script.start), steps)
        if req.flavor == "extended-group" and req.n > 0:
            result.growth[req.n] = len(steps)
        if oracle.claim_mismatches(text, req.flavor, req.curve, req.surface, req.n):
            result.wrong["oracle.claim"] += 1
        if oracle.expected_admissible(req.surface, req.curve, req.flavor) is False:
            result.wrong["oracle.admissibility"] += 1

        if tracer is not None:
            tracer.op_id = 3 * i + 1
        t0 = clock()
        try:
            report = certificates.verify_certificate(cli.parse_certificate(text))
        except Exception as exc:
            result.ops.append(("verify", clock() - t0))
            result.fail(req, exc)
            continue
        result.ops.append(("verify", clock() - t0))
        if not report.ok:
            result.wrong["oracle.genuine_rejected"] += 1

        if req.tamper is None:
            continue
        key = (i, len(text))
        if key not in tampered:
            tampered[key] = oracle.tamper(text, req.tamper, random.Random(req.tamper_seed))
        bad_text, must_reject = tampered[key]
        if tracer is not None:
            tracer.op_id = 3 * i + 2
        t0 = clock()
        try:
            parsed = cli.parse_certificate(bad_text)
        except (ValueError, KeyError):  # a parse error is a rejection
            accepted = False
        else:
            try:
                accepted = certificates.verify_certificate(parsed).ok
            except Exception as exc:
                result.ops.append(("reject", clock() - t0))
                result.fail(req, exc)
                continue
        result.ops.append(("reject", clock() - t0))
        result.counts[f"tampered.{req.tamper}"] += 1
        if accepted == must_reject:
            result.wrong[f"tamper.{req.tamper}"] += 1
    return result


def _check_refusal(result: PassResult, req: Request, exc, OutOfScope) -> None:
    result.counts["surfaces.refused"] += 1
    if not isinstance(exc, OutOfScope):
        result.counts["oracle.unchecked"] += 1  # PAPER.md has no realizability rules
        return
    result.counts["surfaces.refused_conjectural"] += bool(exc.conjectural)
    expected = oracle.expected_admissible(req.surface, req.curve, req.flavor)
    if expected is None:
        result.counts["oracle.unchecked"] += 1
    elif expected or bool(exc.conjectural) != oracle.expected_conjectural(
            req.surface, req.curve, req.flavor):
        result.wrong["oracle.refusal"] += 1


def search_pass(pkg, pairs: list[SearchPair], tracer, words: dict) -> PassResult:
    presentation = pkg.presentation
    result = PassResult()
    clock = time.perf_counter
    for i, pair in enumerate(pairs):
        if i not in words:
            words[i] = (pkg.word(pair.u), pkg.word(pair.v))
        u, v = words[i]
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            found = presentation.equal_modulo_rules(u, v, SEARCH_BUDGET)
        except Exception as exc:
            result.ops.append(("search", clock() - t0))
            result.fail(pair, exc)
            continue
        result.ops.append(("search" if pair.equal else "search_unequal", clock() - t0))
        if found.status != "equal":
            continue
        if not pair.equal:
            result.wrong["oracle.search_unsound"] += 1
            continue
        result.counts["decided"] += 1
        steps = _step_tuples(found.witness)
        result.counts["presentation.witness_steps"] += len(steps)
        _count_script(result, len(u), steps)
        if not oracle.replay(oracle.parse_letters(pair.u), steps, oracle.parse_letters(pair.v)):
            result.wrong["oracle.witness"] += 1
    return result


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable
    run_pass: Callable


WORKLOADS = {
    "large-n": Workload(large_n_inputs, certificate_pass),
    "sweep": Workload(sweep_inputs, certificate_pass),
    "search": Workload(search_inputs, search_pass),
}
