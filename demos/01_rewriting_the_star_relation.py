"""Replay the star-relation rewriting step by step.

The three-holed-torus presentation turns the product of the three boundary
twists into the square of a six-twist word; every equality is one rule
application at one position, so the derivation is a checkable artifact.
"""

from twistcert import (
    Word,
    equal_modulo_rules,
    fixture_path,
    parse_script,
    torus_presentation,
    verify_script,
    word,
)
from twistcert.presentation import rewrite

pres = torus_presentation()
script = parse_script(fixture_path("chain_a.proof").read_text(), pres)

print("start:", script.start)
letters = list(script.start.letters)
for i, step in enumerate(script.steps, start=1):
    rewrite(letters, step)  # one rule at one position, in place
    print(f"  step {i}: {step.render():28s} -> {Word(tuple(letters))}")
print("end:  ", script.end)

report = verify_script(script)
print("\nverifier says:", report)

# the bounded search rediscovers short consequences of the rules
result = equal_modulo_rules(word("a1 b a1"), word("b a1 b"), budget=10)
print("\nsearch: a1 b a1 = b a1 b ?", result.status)
print("witness:")
for step in result.witness.steps:
    print("   ", step.render())

result = equal_modulo_rules(word("( b a1 a2 a3 )^3"), word("c1 c2 c3"), budget=1000)
print("\nsearch: (b a1 a2 a3)^3 = c1 c2 c3 ?", result.status,
      f"({len(result.witness.steps)} step witness)")
