"""Word layer: reduction, inversion, powers, commutators, parsing."""

import random

import pytest

from twistcert import (
    DEFAULT_ALPHABET,
    Letter,
    Word,
    WordSyntaxError,
    commutator,
    concat,
    free_reduce,
    invert,
    power,
    word,
)

_NAMES = ("b", "a1", "a2", "a3", "c1", "c2", "c3", "r")


def random_word(rng, length, names=_NAMES):
    return Word(tuple(Letter(rng.choice(names), rng.choice((1, -1)))
                      for _ in range(length)))


# --- independent reduction oracle: cancel one adjacent pair at a time, in a
# --- caller-chosen scan order, until no pair is left


def _pair_cancels(a, b):
    if a.name != b.name:
        return False
    if DEFAULT_ALPHABET.is_involution(a.name):
        return True
    return a.sign == -b.sign


def oracle_reduce(w, pick="leftmost"):
    letters = [Letter(lt.name, 1) if DEFAULT_ALPHABET.is_involution(lt.name) else lt
               for lt in w.letters]
    while True:
        positions = [i for i in range(len(letters) - 1)
                     if _pair_cancels(letters[i], letters[i + 1])]
        if not positions:
            return Word(tuple(letters))
        i = positions[0] if pick == "leftmost" else positions[-1]
        del letters[i:i + 2]


def test_free_reduce_examples():
    assert free_reduce(word("b b^-1")) == Word()
    assert free_reduce(word("r r")) == Word()
    assert str(free_reduce(word("b a1 a1^-1 a2"))) == "b a2"


def test_free_reduce_confluence_against_oracle():
    rng = random.Random(1804)
    for _ in range(1000):
        w = random_word(rng, 50)
        reduced = free_reduce(w)
        assert reduced == oracle_reduce(w, "leftmost")
        assert reduced == oracle_reduce(w, "rightmost")
        assert free_reduce(reduced) == reduced  # idempotent
        assert len(reduced) <= len(w)


def test_reduced_words_have_no_cancelling_pairs():
    rng = random.Random(77)
    for _ in range(200):
        reduced = free_reduce(random_word(rng, 30))
        for a, b in zip(reduced.letters, reduced.letters[1:]):
            assert not _pair_cancels(a, b)


def test_invert_examples():
    assert str(invert(word("b a1"))) == "a1^-1 b^-1"
    assert invert(Word()) == Word()
    assert str(invert(word("r"))) == "r"


def test_invert_is_an_involution_and_cancels():
    rng = random.Random(5)
    for _ in range(300):
        w = random_word(rng, 20)
        assert invert(invert(w)) == free_reduce(w)
        assert free_reduce(concat(w, invert(w))) == Word()
        assert free_reduce(concat(invert(w), w)) == Word()


def test_power_examples():
    assert str(power(word("b"), 3)) == "b b b"
    assert str(power(word("b a1"), -1)) == "a1^-1 b^-1"
    # reduce-then-concatenate agrees with concatenate-then-reduce
    assert str(power(word("b b^-1 a1"), 2)) == "a1 a1"
    assert free_reduce(concat(*[word("b b^-1 a1")] * 2)) == power(word("b b^-1 a1"), 2)


def test_power_is_additive():
    rng = random.Random(13)
    for _ in range(60):
        w = random_word(rng, 6, names=("b", "a1", "c2"))
        for m in range(-5, 6):
            for n in range(-5, 6):
                assert power(w, m + n) == free_reduce(concat(power(w, m), power(w, n)))


def test_commutator_examples():
    assert commutator(word("b"), word("b")) == Word()
    assert commutator(word("b"), Word()) == Word()
    assert str(commutator(word("b"), word("a1"))) == "b a1 b^-1 a1^-1"


def test_commutator_of_powers_of_one_generator_is_trivial():
    rng = random.Random(99)
    for name in ("b", "a2", "c1"):
        for _ in range(20):
            x = power(word(name), rng.randrange(-6, 7))
            y = power(word(name), rng.randrange(-6, 7))
            assert commutator(x, y) == Word()


def test_operator_sugar_matches_functions():
    u, v = word("b a1"), word("a1^-1 c2")
    assert u * v == free_reduce(concat(u, v))
    assert ~u == invert(u)
    assert u ** -3 == power(u, -3)


def test_parse_grammar():
    assert word("") == Word()
    assert str(word("( b a1 )^3")) == "b a1 b a1 b a1"
    assert str(word("( b )^-2")) == "b^-1 b^-1"
    assert str(word("c2^-1")) == "c2^-1"
    # nested groups expand inside out
    assert str(word("( ( b )^2 a1 )^2")) == "b b a1 b b a1"
    # parsing keeps literal letters: no implicit reduction outside groups
    assert len(word("b b^-1")) == 2
    # but group expansion is a power, hence reduced
    assert str(word("( b b^-1 a1 )^2")) == "a1 a1"


@pytest.mark.parametrize("bad", ["B", "a1^2", "x9", "( b", "b )^2", "( b )^"])
def test_parse_rejects_bad_input(bad):
    with pytest.raises(WordSyntaxError):
        word(bad)


def test_r_exponent_is_normalised():
    assert free_reduce(word("r^-1")) == word("r")
    assert free_reduce(word("b r^-1 r a1")) == word("b a1")
    assert free_reduce(word("r^-1 r^-1")) == Word()


def test_group_powers_are_bounded_before_they_are_expanded():
    from twistcert.words import MAX_EXPANDED_LETTERS as cap

    half = cap // 2
    assert len(word(f"( b a1 )^{half}")) == cap  # exactly at the cap
    for text in [f"b ( b a1 )^{half}",        # one letter past it
                 f"a2 ( b a1 )^-{half}",
                 "( b )^1000000000",          # would allocate gigabytes
                 "( )^1000000000",            # an empty group is bounded too
                 "( ( b a1 )^1024 )^1024"]:   # nested groups multiply
        with pytest.raises(WordSyntaxError, match="past"):
            word(text)
