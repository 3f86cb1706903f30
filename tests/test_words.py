import itertools

import pytest
from hypothesis import given, strategies as st

from ordsep.errors import PreconditionError
from ordsep.words import (
    Basis,
    Word,
    _reduced_product,
    _rotation,
    _trusted_word,
    commensurable,
    conjugate_in_free,
    cyclic_reduce,
    parse_word,
    primitive_root,
    reduce,
    word_to_text,
)

XY = Basis(("x", "y"))


def w(text):
    return parse_word(text, XY)


letters = st.tuples(st.integers(0, 1), st.sampled_from((1, -1)))
words = st.lists(letters, max_size=64).map(lambda ls: Word(XY, tuple(ls)))


@given(words, words, words)
def test_seam_product_equals_reduce_of_product(a, b, c):
    # u ends with c and v starts with c^-1, so the seam usually cancels
    u = reduce(a * c)
    v = reduce(c.inverse() * b)
    assert _reduced_product(u, v) == reduce(u * v)
    assert _reduced_product(reduce(a), reduce(b)) == reduce(a * b)


@given(words, st.integers(-3, 3), st.integers(0, 8))
def test_trusted_results_equal_validated_words(u, n, r):
    core, conj = cyclic_reduce(u)
    results = [
        u * u, u.inverse(), u**n, reduce(u), core, conj,
        _reduced_product(reduce(u), reduce(u)),
        _trusted_word(XY, u.letters),
    ]
    if not core.is_empty():
        results.append(_rotation(core, r % len(core)))
    for result in results:
        public = Word(XY, result.letters)
        assert result == public and public == result
        assert hash(result) == hash(public)


@given(
    st.lists(letters, max_size=4),
    st.one_of(st.integers(max_value=-1), st.integers(min_value=2)),
    st.integers().filter(lambda s: s not in (1, -1)),
)
def test_public_word_still_validates(prefix, bad_index, bad_sign):
    with pytest.raises(ValueError):
        Word(XY, tuple(prefix) + ((bad_index, 1),))
    with pytest.raises(ValueError):
        Word(XY, tuple(prefix) + ((0, bad_sign),))


def test_parse_and_format_round_trip():
    assert word_to_text(w("x y^-1 x")) == "x y^-1 x"
    assert word_to_text(w("1")) == "1"
    assert w("x^3").letters == ((0, 1),) * 3
    assert w("y^-2").letters == ((1, -1),) * 2


def test_parse_rejects_unknown_generator():
    with pytest.raises(ValueError):
        parse_word("z", XY)


def test_reduce_examples():
    assert reduce(w("x x^-1 y")) == w("y")
    assert reduce(w("1")) == w("1")
    assert reduce(w("x y y^-1 x")) == w("x x")


@given(words)
def test_reduce_idempotent_and_shorter(u):
    r = reduce(u)
    assert reduce(r) == r
    assert len(r) <= len(u)
    assert r.is_reduced()


@given(words)
def test_reduce_kills_w_winv(u):
    assert reduce(u * u.inverse()).is_empty()


def test_cyclic_reduce_examples():
    core, conj = cyclic_reduce(w("x^-1 y x"))
    assert (core, conj) == (w("y"), w("x^-1"))
    core, conj = cyclic_reduce(w("x y"))
    assert (core, conj) == (w("x y"), w("1"))
    core, conj = cyclic_reduce(w("y x y^-1"))
    assert (core, conj) == (w("x"), w("y"))


@given(words)
def test_cyclic_reduce_conjugation_identity(u):
    core, conj = cyclic_reduce(u)
    assert reduce(conj * core * conj.inverse()) == reduce(u)
    if not core.is_empty():
        first, last = core.letters[0], core.letters[-1]
        assert not (first[0] == last[0] and first[1] == -last[1])


def test_primitive_root_examples():
    assert primitive_root(w("x y x y")) == (w("x y"), 2)
    assert primitive_root(w("x")) == (w("x"), 1)
    assert primitive_root(w("x^-1 y^-1 x^-1 y^-1")) == (w("x^-1 y^-1"), 2)


def test_primitive_root_rejects_empty():
    with pytest.raises(PreconditionError) as exc:
        primitive_root(w("x x^-1"))
    assert exc.value.code == "EMPTY_WORD"


@given(words.filter(lambda u: not reduce(u).is_empty()))
def test_primitive_root_round_trip(u):
    root, exp = primitive_root(u)
    assert reduce(root**exp) == reduce(u)
    # the root itself is not a proper power
    assert primitive_root(root)[1] == 1


def test_conjugate_in_free_examples():
    assert conjugate_in_free(w("x y"), w("y x")) == w("x")
    assert conjugate_in_free(w("x"), w("y")) is None
    assert conjugate_in_free(w("x y"), w("x^-1 y^-1")) is None


def test_conjugate_witness_is_deterministic_minimum():
    g1 = conjugate_in_free(w("x y x y"), w("y x y x"))
    g2 = conjugate_in_free(w("x y x y"), w("y x y x"))
    assert g1 == g2
    assert g1 is not None


@given(words, st.lists(letters, max_size=6))
def test_conjugate_witness_verifies(u, conj_letters):
    conj = Word(XY, tuple(conj_letters))
    v = reduce(conj.inverse() * u * conj)
    g = conjugate_in_free(u, v)
    assert g is not None
    assert reduce(g.inverse() * u * g) == reduce(v)


def test_commensurable_examples():
    assert commensurable(w("x y x y"), w("y x")) is True
    assert commensurable(w("x"), w("y")) is False
    assert commensurable(w("x"), w("x^-1")) is True


def test_commensurable_rejects_empty():
    with pytest.raises(PreconditionError):
        commensurable(w("1"), w("x"))


def test_commensurable_is_equivalence_on_sample():
    sample = [w(t) for t in ("x", "x^-1", "y x y^-1", "x y", "y x", "x x", "y")]
    for a in sample:
        assert commensurable(a, a)
    for a, b in itertools.product(sample, repeat=2):
        assert commensurable(a, b) == commensurable(b, a)
    for a, b, c in itertools.product(sample, repeat=3):
        if commensurable(a, b) and commensurable(b, c):
            assert commensurable(a, c)
