import pytest
from hypothesis import given, settings, strategies as st

from ordsep.action_graph import element_order
from ordsep.amalgam import (
    AmalgamPresentation,
    AmalgamWord,
    _coset_representative,
    amalgam_word_to_text,
    check_matched_pair,
    conjugate_in_amalgam,
    cyclically_reduce_amalgam,
    delta_sets,
    flatten_to_free,
    matched_pair,
    parse_amalgam_word,
    presentation_from_json,
    presentation_to_json,
    reduce_amalgam,
    syllable_membership,
    union_basis,
)
from ordsep.errors import PreconditionError
from ordsep.words import (
    Basis,
    Word,
    cyclic_reduce,
    parse_word,
    reduce,
    word_sort_key,
    word_to_text,
)

A = Basis(("x", "y"))
B = Basis(("s", "t"))
PRES = AmalgamPresentation(A, B, parse_word("x", A), parse_word("s", B))


def aw(text, pres=PRES):
    return parse_amalgam_word(text, pres)


def wa(text):
    return parse_word(text, A)


def presentation(a, b):
    return AmalgamPresentation(A, B, parse_word(a, A), parse_word(b, B))


# the generator fixture and two presentations whose amalgamated generators
# are longer words: a cyclically reduced one and a commutator
FIXTURE_AND_LONGER = [
    PRES,
    presentation("x y", "s t s"),
    presentation("x y x^-1 y^-1", "s s t"),
]

letters = st.tuples(st.integers(0, 1), st.sampled_from((1, -1)))


def free_words(basis, max_size):
    return st.lists(letters, max_size=max_size).map(lambda ls: Word(basis, tuple(ls)))


@st.composite
def generator_and_word(draw):
    """A reduced subgroup generator, or a conjugate of one, and a word that
    is often a power of it, a conjugate of a power, a power with a few
    letters attached, or a power with one letter changed."""
    pres = draw(st.sampled_from(FIXTURE_AND_LONGER))
    side = draw(st.sampled_from("AB"))
    basis, gen = pres.side_basis(side), pres.side_generator(side)
    h = draw(free_words(basis, 2))
    c = draw(st.sampled_from((gen, reduce(h * gen * h.inverse()))))
    power = reduce(c ** draw(st.integers(-4, 4)))
    left = draw(free_words(basis, 3))
    mode = draw(st.sampled_from(("power", "conjugate", "attached", "edited", "random")))
    if mode == "power":
        word = power
    elif mode == "conjugate":
        word = left * power * left.inverse()
    elif mode == "attached":
        word = left * power * draw(free_words(basis, 3))
    elif mode == "edited" and not power.is_empty():
        edited = list(power.letters)
        edited[draw(st.integers(0, len(edited) - 1))] = draw(letters)
        word = Word(basis, tuple(edited))
    else:
        word = draw(free_words(basis, 12))
    return c, word


def test_presentation_rejects_proper_power_and_name_clash():
    with pytest.raises(ValueError):
        AmalgamPresentation(A, B, parse_word("x x", A), parse_word("s", B))
    with pytest.raises(ValueError):
        AmalgamPresentation(A, Basis(("x", "t")), parse_word("x", A), None)


def test_text_round_trip():
    w = aw("A:{y} B:{t^-1 t^-1}")
    assert amalgam_word_to_text(w) == "A:{y} B:{t^-1 t^-1}"
    assert aw("1").is_empty()
    assert amalgam_word_to_text(AmalgamWord(())) == "1"


def test_reduce_amalgam_examples():
    # the amalgam relation moves x across as s
    assert amalgam_word_to_text(reduce_amalgam(aw("A:{x} B:{t}"), PRES)) == "B:{s t}"
    assert reduce_amalgam(aw("A:{y y^-1}"), PRES).is_empty()
    assert amalgam_word_to_text(reduce_amalgam(aw("A:{y} B:{t}"), PRES)) == "A:{y} B:{t}"


def test_reduce_amalgam_idempotent_and_alternating():
    words = [
        "A:{y} A:{y}",
        "A:{x x} B:{t} B:{t^-1}",
        "B:{s} A:{y} B:{t}",
        "A:{y x} B:{s^-1 t} A:{x}",
    ]
    for text in words:
        raw = aw(text)
        w = reduce_amalgam(raw, PRES)
        assert reduce_amalgam(w, PRES) == w
        assert w.total_letters() <= raw.total_letters()
        sides = [side for side, _ in w.syllables]
        assert all(s1 != s2 for s1, s2 in zip(sides, sides[1:]))


def test_normal_form_is_unique_across_syllable_shuffles():
    # the same element written with the subgroup letter on either side of a
    # syllable boundary must normalize identically
    w1 = reduce_amalgam(aw("A:{y x} B:{t}"), PRES)
    w2 = reduce_amalgam(aw("A:{y} B:{s t}"), PRES)
    assert w1 == w2
    w3 = reduce_amalgam(aw("A:{y x x} B:{s^-1 t}"), PRES)
    w4 = reduce_amalgam(aw("A:{y} B:{s s s^-1 t}"), PRES)
    assert w3 == w4


def test_conjugacy_with_mixed_conjugator():
    u = aw("A:{y} B:{t} A:{y y} B:{t^-1}")
    g = aw("B:{t s} A:{y x}")
    v = reduce_amalgam(g.inverse() * u * g, PRES)
    res = conjugate_in_amalgam(u, v, PRES)
    assert res.status == "yes"


def test_conjugacy_randomized_detection():
    import random

    rng = random.Random(5)
    sylls_a = ["y", "y y", "y^-1", "x y", "y x^-1"]
    sylls_b = ["t", "t t", "t^-1", "s t", "t s^-1"]

    def rand_word(n):
        parts = []
        for i in range(n):
            pool, side = (sylls_a, "A") if i % 2 == 0 else (sylls_b, "B")
            parts.append(f"{side}:{{{rng.choice(pool)}}}")
        return aw(" ".join(parts))

    for _ in range(40):
        u = rand_word(rng.choice((2, 4)))
        g = rand_word(rng.randrange(1, 4))
        if len(reduce_amalgam(u, PRES).syllables) < 2:
            continue
        v = reduce_amalgam(g.inverse() * u * g, PRES)
        assert conjugate_in_amalgam(u, v, PRES).status == "yes"


def test_cyclically_reduce_examples():
    core, conj = cyclically_reduce_amalgam(aw("B:{t} A:{y} B:{t^-1}"), PRES)
    assert amalgam_word_to_text(core) == "A:{y}"
    assert amalgam_word_to_text(conj) == "B:{t}"
    core, conj = cyclically_reduce_amalgam(aw("A:{y} B:{t}"), PRES)
    assert amalgam_word_to_text(core) == "A:{y} B:{t}"
    assert conj.is_empty()
    core, conj = cyclically_reduce_amalgam(aw("A:{y} B:{t} A:{y^-1}"), PRES)
    assert amalgam_word_to_text(core) == "B:{t}"
    assert amalgam_word_to_text(conj) == "A:{y}"


def test_syllable_membership_examples():
    assert syllable_membership(wa("x y x y x y"), wa("x y")) == 3
    assert syllable_membership(wa("y"), wa("x")) is None
    assert syllable_membership(wa("1"), wa("x")) == 0
    assert syllable_membership(wa("x^-2"), wa("x")) == -2


def membership_by_power_scan(w, c):
    wr = reduce(w)
    if wr.is_empty():
        return 0
    cr = reduce(c)
    # every nonzero power of a nonempty reduced word has at least |k| letters
    for k in range(1, len(wr) + 1):
        if reduce(cr**k) == wr:
            return k
        if reduce(cr**-k) == wr:
            return -k
    return None


@settings(deadline=None)
@given(generator_and_word(), st.booleans(), st.data())
def test_syllable_membership_matches_power_scan(gen_word, other_c, data):
    gen, word = gen_word
    c = gen
    if other_c:
        c = data.draw(free_words(gen.basis, 6))
    assert syllable_membership(word, c) == membership_by_power_scan(word, c)


def coset_by_window_scan(word, gen):
    core, _ = cyclic_reduce(gen)
    window = 2 * len(reduce(word)) // max(1, len(core)) + 2
    best_j, best = 0, reduce(word)
    for j in range(-window, window + 1):
        cand = reduce(word * gen**-j)
        if word_sort_key(cand) < word_sort_key(best):
            best, best_j = cand, j
    return best, best_j


@settings(deadline=None)
@given(generator_and_word())
def test_coset_representative_matches_window_scan(gen_word):
    gen, word = gen_word
    assert _coset_representative(word, gen) == coset_by_window_scan(word, gen)


@st.composite
def amalgam_words(draw, pres, min_syllables, max_syllables):
    sides = "AB" if draw(st.booleans()) else "BA"
    syllables = []
    for i in range(draw(st.integers(min_syllables, max_syllables))):
        side = sides[i % 2]
        word = draw(free_words(pres.side_basis(side), 3).filter(lambda w: not w.is_empty()))
        syllables.append((side, word))
    return AmalgamWord(tuple(syllables))


@pytest.mark.parametrize(
    "pres",
    [FIXTURE_AND_LONGER[1], FIXTURE_AND_LONGER[2]],
    ids=["xy-sts", "commutator-sst"],
)
@settings(max_examples=24, deadline=None)
@given(data=st.data())
def test_conjugacy_complete_on_random_conjugates(pres, data):
    u = data.draw(amalgam_words(pres, 2, 4))
    g = data.draw(amalgam_words(pres, 1, 3))
    v = g.inverse() * u * g
    res = conjugate_in_amalgam(u, v, pres)
    assert res.status == "yes"
    check = reduce_amalgam(res.witness.inverse() * u * res.witness, pres)
    assert check == reduce_amalgam(v, pres)


def test_conjugacy_rotation():
    u = aw("A:{y} B:{t} A:{y y} B:{t}")
    v = aw("A:{y y} B:{t} A:{y} B:{t}")
    res = conjugate_in_amalgam(u, v, PRES)
    assert res.status == "yes"
    # the witness verifies by construction; double-check here
    g = res.witness
    lhs = reduce_amalgam(g.inverse() * u * g, PRES)
    assert lhs == reduce_amalgam(v, PRES)


def test_conjugacy_negative_cases():
    assert conjugate_in_amalgam(aw("A:{y}"), aw("B:{t}"), PRES).status == "no"
    assert (
        conjugate_in_amalgam(aw("A:{y} B:{t}"), aw("A:{y} B:{t^-1}"), PRES).status
        == "no"
    )


def test_conjugacy_subgroup_powers():
    # a^2 and b^2 are the same element of the amalgam
    assert conjugate_in_amalgam(aw("A:{x x}"), aw("B:{s s}"), PRES).status == "yes"
    assert conjugate_in_amalgam(aw("A:{x x}"), aw("A:{x^-2}"), PRES).status == "no"


def test_conjugacy_subgroup_twist():
    u = aw("A:{y} B:{t}")
    v = aw("A:{x^-1 y} B:{t s}")
    res = conjugate_in_amalgam(u, v, PRES)
    assert res.status == "yes"


def test_delta_sets_single_factor():
    da, db = delta_sets(aw("A:{y} B:{t}"), aw("A:{y y}"), PRES)
    assert [word_to_text(w) for w in da] == ["y", "y y"]
    assert [word_to_text(w) for w in db] == ["t"]


def test_delta_sets_rank3():
    basis3 = Basis(("x", "y", "z"))
    pres3 = AmalgamPresentation(basis3, B, parse_word("x", basis3), parse_word("s", B))
    da, db = delta_sets(aw("A:{y} B:{t}", pres3), aw("A:{z} B:{t}", pres3), pres3)
    texts = [word_to_text(w) for w in da]
    assert "y" in texts and "z" in texts and "y z^-1" in texts
    assert [word_to_text(w) for w in db] == ["t"]


def test_delta_sets_coset_term():
    v = reduce_amalgam(aw("A:{y} B:{t} A:{x}"), PRES)
    da, db = delta_sets(aw("A:{y} B:{t}"), v, PRES)
    assert "y^-1 x y" in [word_to_text(w) for w in da]


def test_delta_sets_requires_alternating():
    with pytest.raises(PreconditionError) as exc:
        delta_sets(aw("A:{y}"), aw("A:{y y}"), PRES)
    assert exc.value.code == "U_NOT_ALTERNATING"


def test_delta_set_cardinality_bound():
    u = aw("A:{y} B:{t} A:{y y} B:{t t}")
    v = aw("A:{y^-1} B:{t} A:{y} B:{t^-1}")
    m = 2
    l = 2
    _, db = delta_sets(u, v, PRES)
    assert len(db) <= m * m + l * l + m * l + m + l


def test_matched_pair_postconditions():
    u = aw("A:{y} B:{t}")
    v = aw("A:{y y}")
    phi, psi = matched_pair(u, v, PRES, 3)
    da, db = delta_sets(u, v, PRES)
    assert check_matched_pair(phi, psi, PRES, da, db)
    assert element_order(phi.graph, PRES.a) == element_order(psi.graph, PRES.b) > 1


def test_matched_pair_small_prime_rejected():
    presentation = AmalgamPresentation(
        A, B, parse_word("x y x", A), parse_word("s", B)
    )
    u = parse_amalgam_word("A:{y} B:{t}", presentation)
    v = parse_amalgam_word("A:{y y}", presentation)
    with pytest.raises(PreconditionError) as exc:
        matched_pair(u, v, presentation, 2)
    assert exc.value.code == "P_TOO_SMALL"


def test_matched_pair_degenerate_inputs():
    phi, psi = matched_pair(aw("A:{y} B:{t}"), AmalgamWord(()), PRES, 2)
    assert element_order(phi.graph, PRES.a) == element_order(psi.graph, PRES.b) > 1


def test_flatten_to_free():
    w = flatten_to_free(PRES, aw("A:{y} B:{t^-1}").syllables)
    assert w.basis == union_basis(PRES)
    assert word_to_text(w) == "y t^-1"


def test_presentation_json_round_trip():
    data = presentation_to_json(PRES)
    assert data == {"basis_A": ["x", "y"], "basis_B": ["s", "t"], "a": "x", "b": "s"}
    assert presentation_from_json(data) == PRES
