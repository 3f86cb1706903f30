"""Elements of a free product of free groups with cyclic amalgamation.

Words are alternating syllable sequences; the identified subgroup is the
cyclic group generated by ``a`` on the A side and ``b`` on the B side.  The
text format writes syllables as ``A:{...}`` / ``B:{...}`` joined by spaces,
the identity as ``1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .action_graph import (
    FiniteQuotient,
    Perm,
    element_order,
    graph_disjoint_union,
    identity_perm,
    image_perm,
    record_orders,
)
from .budget import Budget, as_budget
from .errors import BudgetExceeded, PreconditionError
from .surgery import (
    _UNITRIANGULAR_LADDER,
    TruncatedUnitGroup,
    abelian_power_graph,
    exact_order_quotient,
    is_prime,
)
from .words import (
    Basis,
    Word,
    _reduced_product,
    conjugate_in_free,
    cyclic_reduce,
    parse_word,
    primitive_root,
    reduce,
    word_sort_key,
    word_to_text,
)


@dataclass(frozen=True)
class AmalgamPresentation:
    basis_a: Basis
    basis_b: Basis
    a: Word
    b: Word

    def __post_init__(self):
        if set(self.basis_a.names) & set(self.basis_b.names):
            raise ValueError("factor bases must use disjoint generator names")
        for word, basis, label in ((self.a, self.basis_a, "a"), (self.b, self.basis_b, "b")):
            if word.basis != basis:
                raise ValueError(f"{label} must be a word over its factor basis")
            if reduce(word).is_empty():
                raise ValueError(f"{label} must be nonempty")
            if not word.is_reduced():
                raise ValueError(f"{label} must be reduced")
            if primitive_root(word)[1] != 1:
                raise ValueError(f"{label} must not be a proper power")

    def side_basis(self, side: str) -> Basis:
        return self.basis_a if side == "A" else self.basis_b

    def side_generator(self, side: str) -> Word:
        return self.a if side == "A" else self.b


Syllable = Tuple[str, Word]


@dataclass(frozen=True)
class AmalgamWord:
    syllables: Tuple[Syllable, ...] = ()

    def __post_init__(self):
        for side, word in self.syllables:
            if side not in ("A", "B"):
                raise ValueError(f"bad side {side!r}")

    def is_empty(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "AmalgamWord") -> "AmalgamWord":
        return AmalgamWord(self.syllables + other.syllables)

    def inverse(self) -> "AmalgamWord":
        return AmalgamWord(
            tuple((side, word.inverse()) for side, word in reversed(self.syllables))
        )

    def total_letters(self) -> int:
        return sum(len(word) for _, word in self.syllables)

    def __str__(self):
        return amalgam_word_to_text(self)


def amalgam_word_to_text(w: AmalgamWord) -> str:
    if w.is_empty():
        return "1"
    return " ".join(f"{side}:{{{word_to_text(word)}}}" for side, word in w.syllables)


_SYLLABLE_RE = re.compile(r"([AB]):\{([^{}]*)\}")


def parse_amalgam_word(text: str, pres: AmalgamPresentation) -> AmalgamWord:
    text = text.strip()
    if text == "1" or text == "":
        return AmalgamWord(())
    matches = list(_SYLLABLE_RE.finditer(text))
    matched = "".join(m.group(0).replace(" ", "") for m in matches)
    if not matches or matched != text.replace(" ", ""):
        raise ValueError(f"bad amalgam word {text!r}")
    syllables = []
    for m in matches:
        side, body = m.group(1), m.group(2)
        syllables.append((side, parse_word(body, pres.side_basis(side))))
    return AmalgamWord(tuple(syllables))


def union_basis(pres: AmalgamPresentation) -> Basis:
    return Basis(pres.basis_a.names + pres.basis_b.names)


def flatten_to_free(pres: AmalgamPresentation, syllables: Sequence[Syllable]) -> Word:
    """The image of a syllable sequence in the free product on the union basis."""
    basis = union_basis(pres)
    offset = pres.basis_a.rank
    letters = []
    for side, word in syllables:
        shift = 0 if side == "A" else offset
        letters.extend((i + shift, s) for i, s in word.letters)
    return reduce(Word(basis, tuple(letters)))


def syllable_membership(w: Word, c: Word) -> Optional[int]:
    """Exponent k with w = c**k in the free group, or None.

    Write reduce(c) = g core g^-1 with core cyclically reduced.  For k > 0
    the reduced form of c**k is g core^k g^-1 letter for letter, and that of
    c**-k is g (core^-1)^k g^-1: nothing cancels inside core^k, nor where it
    meets g.  So reduce(w) can only equal c**k or c**-k for
    k = (|reduce(w)| - 2|g|) / |core|, and one prefix, suffix and middle
    comparison decides which, if either.
    """
    wr = reduce(w)
    if wr.is_empty():
        return 0
    cr = reduce(c)
    if cr.is_empty() or wr.basis != cr.basis:
        return None
    core, g = cyclic_reduce(cr)
    k, rest = divmod(len(wr) - 2 * len(g), len(core))
    if k < 1 or rest:
        return None
    letters = wr.letters
    head, tail = len(g), len(letters) - len(g)
    if letters[:head] != g.letters or letters[tail:] != g.inverse().letters:
        return None
    middle = letters[head:tail]
    if middle == core.letters * k:
        return k
    if middle == core.inverse().letters * k:
        return -k
    return None


def _coset_representative(word: Word, gen: Word) -> Tuple[Word, int]:
    """Canonical representative of word * <gen>: the shortest element of the
    coset, ties broken shortlex.  Returns (rep, j) with word = rep * gen**j.

    The candidates reduce(word * gen**-j) are stepped through by one seam
    product with gen^-1 each, and a candidate's shortlex key is built only
    when its length ties the best so far."""
    core, _ = cyclic_reduce(gen)
    best = reduce(word)
    window = 2 * len(best) // max(1, len(core)) + 2
    step = reduce(gen).inverse()
    cand = _reduced_product(best, reduce(gen**window))
    best_j = 0
    for j in range(-window, window + 1):
        if j > -window:
            cand = _reduced_product(cand, step)
        if len(cand) < len(best) or (
            len(cand) == len(best) and word_sort_key(cand) < word_sort_key(best)
        ):
            best, best_j = cand, j
    return best, best_j


def reduce_amalgam(w: AmalgamWord, pres: AmalgamPresentation) -> AmalgamWord:
    """Unique normal form: alternating sides, every syllable except the last
    a canonical coset representative of the amalgamated subgroup, the
    accumulated subgroup power carried rightward; a lone subgroup power is
    written on the A side."""
    sylls: List[Syllable] = [(s, reduce(word)) for s, word in w.syllables]
    while True:
        changed = True
        while changed:
            changed = False
            merged: List[Syllable] = []
            for side, word in sylls:
                if word.is_empty():
                    changed = True
                    continue
                if merged and merged[-1][0] == side:
                    combined = reduce(merged[-1][1] * word)
                    merged.pop()
                    if not combined.is_empty():
                        merged.append((side, combined))
                    changed = True
                else:
                    merged.append((side, word))
            sylls = merged
            if len(sylls) <= 1:
                break
            for i, (side, word) in enumerate(sylls):
                k = syllable_membership(word, pres.side_generator(side))
                if k is not None:
                    other = "B" if side == "A" else "A"
                    sylls[i] = (other, reduce(pres.side_generator(other) ** k))
                    changed = True
                    break
        if len(sylls) <= 1:
            break
        # push each syllable's subgroup tail into its right neighbor; when a
        # transfer lands a neighbor inside the subgroup, merge and start over
        dirty = False
        for i in range(len(sylls) - 1):
            side, word = sylls[i]
            gen = pres.side_generator(side)
            rep, j = _coset_representative(word, gen)
            if j == 0:
                continue
            other = "B" if side == "A" else "A"
            other_gen = pres.side_generator(other)
            sylls[i] = (side, rep)
            nxt_side, nxt_word = sylls[i + 1]
            sylls[i + 1] = (nxt_side, reduce(other_gen**j * nxt_word))
            if syllable_membership(sylls[i + 1][1], other_gen) is not None:
                dirty = True
                break
        if not dirty:
            break
    if len(sylls) == 1:
        side, word = sylls[0]
        k = syllable_membership(word, pres.side_generator(side))
        if k is not None and side == "B":
            sylls = [("A", reduce(pres.a**k))]
    return AmalgamWord(tuple(sylls))


def cyclically_reduce_amalgam(
    w: AmalgamWord, pres: AmalgamPresentation
) -> Tuple[AmalgamWord, AmalgamWord]:
    """(core, conjugator) with w = conjugator * core * conjugator^-1 and the
    core cyclically reduced: a single syllable or an alternating sequence of
    even length."""
    core = reduce_amalgam(w, pres)
    conj_sylls: List[Syllable] = []
    while len(core.syllables) >= 2 and core.syllables[0][0] == core.syllables[-1][0]:
        head = core.syllables[0]
        conj_sylls.append(head)
        rotated = AmalgamWord(core.syllables[1:] + (head,))
        core = reduce_amalgam(rotated, pres)
    return core, AmalgamWord(tuple(conj_sylls))


# -- conjugacy -------------------------------------------------------------------


@dataclass
class ConjugacyResult:
    status: str  # "yes" | "no" | "unknown"
    witness: Optional[AmalgamWord] = None

    def __bool__(self):
        return self.status == "yes"


def _power_inverse_chain(pres: AmalgamPresentation, k: int) -> bool:
    """Can a**k be conjugated to a**-k inside either factor?"""
    ak = reduce(pres.a**k)
    bk = reduce(pres.b**k)
    if conjugate_in_free(ak, ak.inverse()) is not None:
        return True
    return conjugate_in_free(bk, bk.inverse()) is not None


def _subgroup_power(pres: AmalgamPresentation, k: int) -> AmalgamWord:
    return reduce_amalgam(AmalgamWord((("A", reduce(pres.a**k)),)), pres)


def conjugate_in_amalgam(
    u: AmalgamWord, v: AmalgamWord, pres: AmalgamPresentation, budget=None
) -> ConjugacyResult:
    """Bounded conjugacy decision in the amalgam.

    Cyclically reduced alternating cores are compared across syllable
    rotations conjugated by subgroup powers a**k with |k| bounded by the
    total letter count; beyond the bound the conjugated first syllable is
    provably longer than anything in v, so exhaustion is a definitive no.
    ``unknown`` is reserved for budget exhaustion mid-scan.

    Each k is tested on its first syllable before any normal form is built.
    Let r1 r2 ... rm (m >= 2) be the rotation, c the generator of r1's side,
    c' that of rm's side, and y1 the first syllable of v's core.  Then
    (c^-k r1) r2 ... (rm c'^k) is a reduced alternating form of the
    candidate, and by the normal form theorem (Lyndon-Schupp IV.2) every
    reduced form of one element starts in the same coset of <c>.  So the
    candidate can equal v's core only if y1^-1 c^-k r1 lies in <c>; every
    other k is skipped, still at one budget unit.  Since c is not a proper
    power, <c> is malnormal in its free factor, and r1 lies outside it: two
    surviving k, k' would put r1^-1 c^(k-k') r1 in <c>, forcing k = k'.  So
    at most one k per rotation pays for the full normal form, which alone
    decides it.
    """
    budget = as_budget(budget)
    cu, gu = cyclically_reduce_amalgam(u, pres)
    cv, gv = cyclically_reduce_amalgam(v, pres)

    def result_yes(mid: AmalgamWord) -> ConjugacyResult:
        witness = reduce_amalgam(gu * mid * gv.inverse(), pres)
        check = reduce_amalgam(witness.inverse() * u * witness, pres)
        assert check == reduce_amalgam(v, pres), "conjugacy witness failed"
        return ConjugacyResult("yes", witness)

    if cu.is_empty() or cv.is_empty():
        if cu.is_empty() and cv.is_empty():
            return result_yes(AmalgamWord(()))
        return ConjugacyResult("no")

    ku = _classify_core(cu, pres)
    kv = _classify_core(cv, pres)

    if ku[0] == "power" or kv[0] == "power":
        return _power_case(u, v, cu, cv, ku, kv, pres, result_yes)
    if ku[0] != kv[0]:
        return ConjugacyResult("no")
    if ku[0] == "single":
        if ku[1] != kv[1]:
            return ConjugacyResult("no")
        g = conjugate_in_free(cu.syllables[0][1], cv.syllables[0][1])
        if g is None:
            return ConjugacyResult("no")
        return result_yes(AmalgamWord(((ku[1], g),)))

    # both alternating
    m = len(cu.syllables)
    if m != len(cv.syllables):
        return ConjugacyResult("no")
    # beyond the window the candidate's first syllable is provably longer
    # than anything in v, even after coset canonicalization
    bound = 3 * u.total_letters() + v.total_letters() + 2
    side = cv.syllables[0][0]
    c = pres.side_generator(side)
    c_inv = c.inverse()
    y1_inv = cv.syllables[0][1].inverse()
    try:
        for rot in range(m):
            rotated = cu.syllables[rot:] + cu.syllables[:rot]
            if rotated[0][0] != side:
                continue
            prefix = AmalgamWord(cu.syllables[:rot])
            # first syllable c^-k r1 of the candidate, stepped by one seam
            # product per k
            first = _reduced_product(reduce(c**bound), rotated[0][1])
            for k in range(-bound, bound + 1):
                budget.charge(1, "conjugacy scan")
                if k > -bound:
                    first = _reduced_product(c_inv, first)
                if syllable_membership(_reduced_product(y1_inv, first), c) is None:
                    continue
                power = _subgroup_power(pres, k)
                cand = reduce_amalgam(
                    power.inverse() * AmalgamWord(rotated) * power, pres
                )
                if cand == cv:
                    return result_yes(prefix * power)
    except BudgetExceeded:
        return ConjugacyResult("unknown")
    return ConjugacyResult("no")


def _classify_core(core: AmalgamWord, pres) -> tuple:
    if len(core.syllables) == 1:
        side, word = core.syllables[0]
        k = syllable_membership(word, pres.side_generator(side))
        if k is not None:
            return ("power", k)
        return ("single", side, word)
    return ("alternating",)


def _power_case(u, v, cu, cv, ku, kv, pres, result_yes) -> ConjugacyResult:
    if ku[0] == "power" and kv[0] == "power":
        k, j = ku[1], kv[1]
        if k == j:
            return result_yes(AmalgamWord(()))
        if k == -j and _power_inverse_chain(pres, k):
            # realize the inversion inside whichever factor supports it
            for side, gen in (("A", pres.a), ("B", pres.b)):
                g = conjugate_in_free(reduce(gen**k), reduce(gen**-k))
                if g is not None:
                    return result_yes(AmalgamWord(((side, g),)))
        return ConjugacyResult("no")
    if ku[0] == "power":
        power_exp, single = ku[1], (cv, kv)
        swap = True
    else:
        power_exp, single = kv[1], (cu, ku)
        swap = False
    core, kind = single
    if kind[0] != "single":
        return ConjugacyResult("no")
    side, word = core.syllables[0]
    gen = pres.side_generator(side)
    exponents = {power_exp}
    if _power_inverse_chain(pres, power_exp):
        exponents.add(-power_exp)
    for exp in sorted(exponents):
        g = conjugate_in_free(reduce(gen**exp), word)
        if g is not None:
            mid = AmalgamWord(((side, g),))
            if swap:
                return result_yes(mid)
            witness = conjugate_in_free(word, reduce(gen**exp))
            return result_yes(AmalgamWord(((side, witness),)))
    return ConjugacyResult("no")


# -- delta sets and matched factor quotients ------------------------------------


def delta_sets(
    u: AmalgamWord, v: AmalgamWord, pres: AmalgamPresentation
) -> Tuple[Tuple[Word, ...], Tuple[Word, ...]]:
    """The finite subsets of each factor whose survival in a finite quotient
    keeps the syllables of u and v out of the amalgamated subgroup's cosets.

    Nonidentity reduced values only, deterministically ordered.  The element
    q is the subgroup power with v = u * q when u^-1 v lands in the subgroup;
    otherwise q = 1 and contributes nothing.
    """
    ru = reduce_amalgam(u, pres)
    if len(ru.syllables) < 2 or any(
        side != ("A" if i % 2 == 0 else "B") for i, (side, _) in enumerate(ru.syllables)
    ):
        raise PreconditionError(
            "u must be alternating starting on the A side", code="U_NOT_ALTERNATING"
        )
    rv = reduce_amalgam(v, pres)
    a_sylls = [word for side, word in ru.syllables if side == "A"]
    b_sylls = [word for side, word in ru.syllables if side == "B"]

    delta_a: List[Word] = list(a_sylls)
    delta_b: List[Word] = list(b_sylls)

    if len(rv.syllables) >= 2:
        # alternating v: the full set with all pairwise coset differences
        va_sylls = [word for side, word in rv.syllables if side == "A"]
        vb_sylls = [word for side, word in rv.syllables if side == "B"]
        delta_a.extend(va_sylls)
        delta_b.extend(vb_sylls)
        for xs, out in (
            (a_sylls, delta_a),
            (b_sylls, delta_b),
            (va_sylls, delta_a),
            (vb_sylls, delta_b),
        ):
            for x in xs:
                for y in xs:
                    out.append(reduce(x * y.inverse()))
        for x in a_sylls:
            for y in va_sylls:
                delta_a.append(reduce(x * y.inverse()))
        for x in b_sylls:
            for y in vb_sylls:
                delta_b.append(reduce(x * y.inverse()))
        q_word = reduce_amalgam(ru.inverse() * rv, pres)
        q_exp = None
        if len(q_word.syllables) == 1:
            q_exp = syllable_membership(q_word.syllables[0][1], pres.a)
        if q_exp:
            q = reduce(pres.a**q_exp)
            a1 = a_sylls[0]
            delta_a.append(reduce(a1.inverse() * q * a1))
    elif len(rv.syllables) == 1:
        side, word = rv.syllables[0]
        (delta_a if side == "A" else delta_b).append(word)

    return _dedupe_words(delta_a), _dedupe_words(delta_b)


def _dedupe_words(words) -> Tuple[Word, ...]:
    seen = {}
    for word in words:
        red = reduce(word)
        if red.is_empty():
            continue
        seen[red.letters] = red
    return tuple(sorted(seen.values(), key=word_sort_key))


_ABELIAN_LEVELS = 5
_LADDER_DEGREE_CAP = 8000


def p_quotient_ladder(basis: Basis, p: int, budget: Budget):
    """Deterministic ladder of finite p-group quotient graphs of a free group."""
    for m in range(1, _ABELIAN_LEVELS + 1):
        degree = (p**m) ** basis.rank
        if degree > _LADDER_DEGREE_CAP:
            break
        budget.charge(degree, "abelian ladder graph")
        yield abelian_power_graph(basis, p**m)
    # the last rung, (4, 1), would only add budget to searches that fail anyway
    for d, m in _UNITRIANGULAR_LADDER[:5]:
        group = TruncatedUnitGroup(basis.rank, p, m, d)
        try:
            yield group.cayley_graph(basis, _LADDER_DEGREE_CAP, budget)
        except BudgetExceeded:
            continue


def _separating_quotient(
    basis: Basis, gen_word: Word, delta: Sequence[Word], p: int, budget: Budget
) -> FiniteQuotient:
    """Finite p-group quotient where every listed element survives and the
    ones outside the subgroup stay outside its image."""
    outside = [el for el in delta if syllable_membership(el, gen_word) is None]
    for graph in p_quotient_ladder(basis, p, budget):
        budget.charge(1, "separation candidate")
        a_powers = _powers(image_perm(graph, gen_word))
        ident = identity_perm(graph.degree)
        ok = True
        for el in delta:
            img = image_perm(graph, el)
            if img == ident:
                ok = False
                break
            if el in outside and img in a_powers:
                ok = False
                break
        if ok:
            return FiniteQuotient(graph, basis, {})
    raise BudgetExceeded("no separating quotient in the ladder")


def _powers(p: Perm) -> set:
    """The cyclic group <p>, as a set of permutations."""
    powers = set()
    cur = identity_perm(len(p))
    while cur not in powers:
        powers.add(cur)
        cur = tuple(p[j] for j in cur)
    return powers


def check_matched_pair(
    phi: FiniteQuotient,
    psi: FiniteQuotient,
    pres: AmalgamPresentation,
    delta_a: Sequence[Word],
    delta_b: Sequence[Word],
) -> bool:
    """Recompute every matched-pair postcondition from the quotients."""
    na = element_order(phi.graph, pres.a)
    nb = element_order(psi.graph, pres.b)
    if na != nb or na <= 1:
        return False
    for quot, gen, delta in ((phi, pres.a, delta_a), (psi, pres.b, delta_b)):
        ident = identity_perm(quot.graph.degree)
        powers = _powers(image_perm(quot.graph, gen))
        for el in delta:
            img = image_perm(quot.graph, el)
            if img == ident:
                return False
            if syllable_membership(el, gen) is None and img in powers:
                return False
    return True


def matched_pair(
    u: AmalgamWord,
    v: AmalgamWord,
    pres: AmalgamPresentation,
    p: int,
    budget=None,
) -> Tuple[FiniteQuotient, FiniteQuotient]:
    """Factor quotients with equal subgroup-generator orders and all delta
    elements separated; built as a product of a separating quotient and an
    exact-order quotient matching the two sides.

    Separation runs against v and against its inverse: the splice induction
    downstream dies if the image of v becomes conjugate to the inverse image
    of u (reversed representatives shadow every cut), and only the inverse
    variant's products rule that out.
    """
    budget = as_budget(budget)
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime", code="NOT_PRIME")
    if p <= max(len(reduce(pres.a)), len(reduce(pres.b))):
        raise PreconditionError(
            "prime must exceed the subgroup generator lengths", code="P_TOO_SMALL"
        )
    delta_a, delta_b = delta_sets(u, v, pres)
    v_inv = reduce_amalgam(v.inverse(), pres)
    if not v_inv.is_empty():
        inv_a, inv_b = delta_sets(u, v_inv, pres)
        delta_a = _dedupe_words(list(delta_a) + list(inv_a))
        delta_b = _dedupe_words(list(delta_b) + list(inv_b))
    phi1 = _separating_quotient(pres.basis_a, pres.a, delta_a, p, budget)
    psi1 = _separating_quotient(pres.basis_b, pres.b, delta_b, p, budget)
    target = max(
        element_order(phi1.graph, pres.a),
        element_order(psi1.graph, pres.b),
        p,
    )
    phi2 = exact_order_quotient(pres.a, target, budget)
    psi2 = exact_order_quotient(pres.b, target, budget)
    phi = FiniteQuotient(graph_disjoint_union([phi1.graph, phi2.graph]), pres.basis_a, {})
    psi = FiniteQuotient(graph_disjoint_union([psi1.graph, psi2.graph]), pres.basis_b, {})
    record_orders(phi, [pres.a])
    record_orders(psi, [pres.b])
    if not check_matched_pair(phi, psi, pres, delta_a, delta_b):
        raise BudgetExceeded("matched pair failed its own postconditions")
    return phi, psi


# -- presentation serialization ---------------------------------------------------


def presentation_to_json(pres: AmalgamPresentation) -> dict:
    return {
        "basis_A": list(pres.basis_a.names),
        "basis_B": list(pres.basis_b.names),
        "a": word_to_text(pres.a),
        "b": word_to_text(pres.b),
    }


def presentation_from_json(data: dict) -> AmalgamPresentation:
    basis_a = Basis(tuple(data["basis_A"]))
    basis_b = Basis(tuple(data["basis_B"]))
    return AmalgamPresentation(
        basis_a,
        basis_b,
        parse_word(data["a"], basis_a),
        parse_word(data["b"], basis_b),
    )
