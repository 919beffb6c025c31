"""Word layer: reduction, inversion, powers, commutators, parsing."""

import random
import time

import pytest

from twistcert import (
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
    if a.name == "r":
        return True
    return a.sign == -b.sign


def oracle_reduce(w, pick="leftmost"):
    letters = [Letter(lt.name, 1) if lt.name == "r" else lt
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
                 "( ( b a1 )^1024 )^1024",    # nested groups multiply
                 "( ( b a1 )^512 )^1024"]:    # 2^20 letters, after the inner group's 1,024
        with pytest.raises(WordSyntaxError, match="past"):
            word(text)


@pytest.mark.parametrize("text", [
    " ".join(["( ( b )^1048576 )^0"] * 1000),              # each copy vanishes
    " ".join(["( ( b )^524288 ( b^-1 )^524288 )^1"] * 2),  # each copy cancels
], ids=["vanishing", "cancelling"])
def test_group_expansions_share_one_budget(text):
    # the word stays short, so only the letters the groups produce bound
    # the work of parsing it
    start = time.perf_counter()
    with pytest.raises(WordSyntaxError, match="past"):
        word(text)
    assert time.perf_counter() - start < 5


def test_groups_nested_too_deeply_are_refused():
    # 3,000 nested groups would exhaust the parser's recursion
    assert word("( " * 50 + "b" + " )^1" * 50) == word("b")
    start = time.perf_counter()
    with pytest.raises(WordSyntaxError, match="^groups are nested too deeply$"):
        word("( " * 3000 + "b" + " )^1" * 3000)
    assert time.perf_counter() - start < 5


# --- what each generator is, pinned across every layer that asks: parsing,
# --- free reduction, the determinant homomorphism and the FREE_RED rules

_DET_AT_GENUS_6 = {  # det_hom on n:6 with k = 0, or its UndefinedDet message
    "b": 1, "a1": 1, "a2": 1, "a3": 1, "c1": 1, "c2": 1, "c3": 1, "c": 1,
    "r": 1,  # (-1)^k
    "h": -1,
    "s": "no determinant value for generator 's': membership is decided by "
         "construction, not by determinant",
}


@pytest.mark.parametrize("name", sorted(_DET_AT_GENUS_6))
def test_each_generator_parses_reduces_and_has_its_determinant(name):
    from twistcert import SurfaceSpec, UndefinedDet, det_hom

    assert word(name).letters == (Letter(name, 1),)
    assert word(f"{name}^-1").letters == (Letter(name, -1),)
    assert (free_reduce(word(f"{name} {name}")) == Word()) == (name == "r")
    surface = SurfaceSpec(orientable=False, genus=6)
    expected = _DET_AT_GENUS_6[name]
    if isinstance(expected, int):
        assert det_hom(word(name), surface, k=0) == expected
    else:
        with pytest.raises(UndefinedDet) as exc:
            det_hom(word(name), surface, k=0)
        assert str(exc.value) == expected


def test_unknown_generators_have_no_determinant_and_do_not_parse():
    from twistcert import SurfaceSpec, UndefinedDet, det_hom

    with pytest.raises(UndefinedDet, match="'z': unknown generator"):
        det_hom(Word((Letter("z", 1),)), SurfaceSpec(orientable=False, genus=6), k=0)
    with pytest.raises(WordSyntaxError, match="unknown generator 'z'"):
        word("z")


def test_the_rules_derived_from_the_generators_are_pinned():
    import hashlib

    from twistcert.presentation import every_rule

    texts = sorted(rule.render() for rule in every_rule().rules())
    assert len(texts) == 76
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "2145426e69aaebd908b305c70bf317f89a08728c9dc10883ecc4f9e4bf8a8bd1")


@pytest.mark.parametrize("sign", [2, 0, -2, True, 1.0, "1"])
def test_a_letter_refuses_any_sign_but_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match=r"a letter's sign is \+1 or -1"):
        Letter("b", sign)


def test_a_letter_with_sign_two_cannot_reach_the_search():
    from twistcert import equal_modulo_rules

    # b^2 printed as "b", so this search once returned "equal" with a
    # witness that reads start: b, step 1: FREE_RED(b) RL @ 1, end: b b b^-1
    b = word("b").letters[0]
    with pytest.raises(ValueError, match="not 2"):
        equal_modulo_rules(Word((Letter("b", 2),)), Word((Letter("b", 2), b, b.inverse())),
                           budget=10)
    # a letter stays its (name, sign) pair
    assert Letter("b", -1) == ("b", -1) == b.inverse()
    assert hash(Letter("b", -1)) == hash(("b", -1))


@pytest.mark.parametrize("build", [
    lambda: Letter("b", 1)._replace(sign=2),
    lambda: Letter("b", 1)._replace(sign=True),
    lambda: Letter._make(("b", 0)),
    lambda: Letter._make(["b", -2]),
], ids=["replace-2", "replace-True", "make-0", "make-list"])
def test_make_and_replace_check_the_sign(build):
    with pytest.raises(ValueError, match=r"a letter's sign is \+1 or -1"):
        build()


def test_make_and_replace_build_letters():
    assert Letter._make(("b", -1)) == Letter("b", -1)
    assert type(Letter._make(("b", -1))) is Letter
    assert Letter("a1", 1)._replace(sign=-1) == Letter("a1", -1)
    assert Letter("a1", 1)._replace(name="a2") == Letter("a2", 1)
