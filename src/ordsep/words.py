"""Exact algebra of words in a finitely generated free group.

Words are sequences of signed generator letters over a fixed basis.  The
text format is whitespace-separated tokens, each a generator name optionally
suffixed ``^-1`` (an integer exponent is also accepted on input); the empty
word prints as ``1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import PreconditionError

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Basis:
    names: Tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise ValueError("basis needs at least one generator")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names: {names}")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad generator name: {name!r}")

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


Letter = Tuple[int, int]  # (generator index, sign in {+1, -1})


@dataclass(frozen=True)
class Word:
    """A word over ``basis``: a tuple of (generator index, sign) letters.

    ``Word(basis, letters)`` validates every letter.  The operations below
    (``*``, ``inverse``, ``**``, ``reduce``, ``_reduced_product``,
    ``cyclic_reduce``, ``_rotation``) build their results with
    ``_trusted_word``, which skips validation.  That is sound because their
    letters are copied or sign-flipped from existing valid words over the
    same basis; ``_trusted_word`` must not be given letters from anywhere
    else.
    """

    basis: Basis
    letters: Tuple[Letter, ...] = ()

    def __post_init__(self):
        letters = tuple((int(i), int(s)) for i, s in self.letters)
        object.__setattr__(self, "letters", letters)
        for i, s in letters:
            if not 0 <= i < self.basis.rank:
                raise ValueError(f"letter index {i} out of range")
            if s not in (1, -1):
                raise ValueError(f"letter sign must be +-1, got {s}")

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        _check_same_basis(self, other)
        return _trusted_word(self.basis, self.letters + other.letters)

    def inverse(self) -> "Word":
        return _trusted_word(self.basis, tuple((i, -s) for i, s in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return _trusted_word(self.basis, base.letters * abs(n))

    def is_reduced(self) -> bool:
        for (i, s), (j, t) in zip(self.letters, self.letters[1:]):
            if i == j and s == -t:
                return False
        return True

    def is_empty(self) -> bool:
        return not self.letters

    def __str__(self):
        return word_to_text(self)


def _trusted_word(basis: Basis, letters: Tuple[Letter, ...]) -> Word:
    """A Word built without validation; see the invariant in ``Word``."""
    w = object.__new__(Word)
    object.__setattr__(w, "basis", basis)
    object.__setattr__(w, "letters", letters)
    return w


def _check_same_basis(u: Word, v: Word) -> None:
    if v.basis is not u.basis and v.basis != u.basis:
        raise ValueError("cannot multiply words over different bases")


def empty_word(basis: Basis) -> Word:
    return Word(basis, ())


def generator(basis: Basis, name: str, sign: int = 1) -> Word:
    return Word(basis, ((basis.index(name), sign),))


def parse_word(text: str, basis: Basis) -> Word:
    text = text.strip()
    if text == "1" or text == "":
        return empty_word(basis)
    letters = []
    for token in text.split():
        if "^" in token:
            name, _, exp = token.partition("^")
            try:
                k = int(exp)
            except ValueError:
                raise ValueError(f"bad exponent in token {token!r}")
        else:
            name, k = token, 1
        if name not in basis.names:
            raise ValueError(f"unknown generator {name!r}")
        idx = basis.index(name)
        sign = 1 if k > 0 else -1
        letters.extend([(idx, sign)] * abs(k))
    return Word(basis, tuple(letters))


def word_to_text(w: Word) -> str:
    if not w.letters:
        return "1"
    return " ".join(
        w.basis.names[i] if s > 0 else f"{w.basis.names[i]}^-1" for i, s in w.letters
    )


def reduce(w: Word) -> Word:
    """Freely reduce: cancel adjacent inverse pairs until none remain."""
    stack = []
    for let in w.letters:
        if stack and stack[-1][0] == let[0] and stack[-1][1] == -let[1]:
            stack.pop()
        else:
            stack.append(let)
    return _trusted_word(w.basis, tuple(stack))


def _reduced_product(u: Word, v: Word) -> Word:
    """``reduce(u * v)`` for reduced u and v: only letters at the seam can
    cancel, so the result is a prefix of u followed by a suffix of v."""
    _check_same_basis(u, v)
    left, right = u.letters, v.letters
    n, m = len(left), len(right)
    t = 0
    while t < n and t < m:
        i, s = left[n - 1 - t]
        j, r = right[t]
        if i != j or s != -r:
            break
        t += 1
    return _trusted_word(u.basis, left[: n - t] + right[t:])


def cyclic_reduce(w: Word) -> Tuple[Word, Word]:
    """Return (core, conjugator) with w = conjugator * core * conjugator^-1.

    The core is cyclically reduced: its first and last letters are not
    mutually inverse.
    """
    letters = reduce(w).letters
    n = len(letters)
    t = 0
    while (
        n - 2 * t >= 2
        and letters[t][0] == letters[n - 1 - t][0]
        and letters[t][1] == -letters[n - 1 - t][1]
    ):
        t += 1
    return _trusted_word(w.basis, letters[t : n - t]), _trusted_word(w.basis, letters[:t])


def primitive_root(w: Word) -> Tuple[Word, int]:
    """Maximal root: w = root**exponent with root not a proper power."""
    red = reduce(w)
    if red.is_empty():
        raise PreconditionError("primitive_root of the empty word", code="EMPTY_WORD")
    core, conj = cyclic_reduce(red)
    n = len(core)
    root_core = core
    exponent = 1
    for d in range(1, n):
        if n % d:
            continue
        if all(core.letters[i] == core.letters[i % d] for i in range(n)):
            root_core = Word(w.basis, core.letters[:d])
            exponent = n // d
            break
    root = reduce(conj * root_core * conj.inverse())
    return root, exponent


def _rotation(core: Word, r: int) -> Word:
    return _trusted_word(core.basis, core.letters[r:] + core.letters[:r])


def _letter_key(letter: Letter):
    i, s = letter
    return (i, 0 if s > 0 else 1)


def word_sort_key(w: Word):
    """Shortlex key: length first, then letters by (generator, sign)."""
    return (len(w.letters), tuple(_letter_key(l) for l in w.letters))


def conjugate_in_free(u: Word, v: Word) -> Optional[Word]:
    """Witness g with g^-1 * u * g = v, or None if u, v are not conjugate.

    The witness is the lexicographically smallest among the minimal-length
    ones (letters ordered by generator index, positive before negative).
    """
    cu, gu = cyclic_reduce(u)
    cv, gv = cyclic_reduce(v)
    if len(cu) != len(cv):
        return None
    if cu.is_empty():
        return empty_word(u.basis)
    base = None
    for r in range(len(cu)):
        if _rotation(cu, r).letters == cv.letters:
            prefix = Word(u.basis, cu.letters[:r])
            base = reduce(gu * prefix * gv.inverse())
            break
    if base is None:
        return None
    # All witnesses form base * <primitive root of v>; scan a window wide
    # enough to contain every minimal-length coset element.
    zv, _ = primitive_root(v)
    span = len(base) + 4
    best = base
    g = base
    for _ in range(span):
        g = reduce(g * zv)
        if word_sort_key(g) < word_sort_key(best):
            best = g
    g = base
    zv_inv = zv.inverse()
    for _ in range(span):
        g = reduce(g * zv_inv)
        if word_sort_key(g) < word_sort_key(best):
            best = g
    return best


def commensurable(u: Word, v: Word) -> bool:
    """True when u and v lie in conjugate cyclic subgroups."""
    if reduce(u).is_empty() or reduce(v).is_empty():
        raise PreconditionError("commensurable needs nonempty words", code="EMPTY_WORD")
    ru, _ = primitive_root(u)
    rv, _ = primitive_root(v)
    if conjugate_in_free(ru, rv) is not None:
        return True
    return conjugate_in_free(ru, rv.inverse()) is not None
