"""Brute-force ground truth: exhaustive homomorphism scans into Sym(n).

Never used inside the construction engines; tests and cross-checks only.
The enumerators are plain generators; ``oracle_separate`` walks the same
enumeration order with numpy-vectorized chunks so full scans at the default
cap stay fast.
"""

from __future__ import annotations

import itertools
from math import lcm
from typing import Dict, Iterator, Tuple

import numpy as np

from .action_graph import ActionGraph, FiniteQuotient, element_order, record_orders
from .amalgam import AmalgamPresentation, AmalgamWord, flatten_to_free, union_basis
from .errors import CapExceeded, PreconditionError
from .words import Basis, Word

DEFAULT_CAP = 5
_CHUNK = 200_000


def _sym(n: int):
    return list(itertools.permutations(range(n)))


def enumerate_free_homs(rank: int, n: int, cap: int = DEFAULT_CAP) -> Iterator[Tuple]:
    """All generator-image tuples in Sym(n), generator 0 varying slowest."""
    if n < 1 or n > cap:
        raise CapExceeded(f"degree {n} outside 1..{cap}", degree=n, cap=cap)
    perms = _sym(n)
    return itertools.product(perms, repeat=rank)


def enumerate_amalgam_homs(pres, n: int, cap: int = DEFAULT_CAP) -> Iterator[Tuple]:
    """Tuples over the union basis admitting only image(a) == image(b)."""
    if n < 1 or n > cap:
        raise CapExceeded(f"degree {n} outside 1..{cap}", degree=n, cap=cap)
    basis = union_basis(pres)
    a_word = flatten_to_free(pres, [("A", pres.a)])
    b_word = flatten_to_free(pres, [("B", pres.b)])
    for images in itertools.product(_sym(n), repeat=basis.rank):
        if _hom_image(images, a_word) == _hom_image(images, b_word):
            yield images


def _hom_image(images, w: Word) -> Tuple[int, ...]:
    n = len(images[0])
    cur = tuple(range(n))
    inverses = {}
    for gen, sign in w.letters:
        p = images[gen]
        if sign < 0:
            if gen not in inverses:
                inv = [0] * n
                for a, b in enumerate(p):
                    inv[b] = a
                inverses[gen] = tuple(inv)
            p = inverses[gen]
        cur = tuple(p[v] for v in cur)
    return cur


def hom_order(images, w: Word) -> int:
    p = _hom_image(images, w)
    n = len(p)
    k = 1
    q = p
    ident = tuple(range(n))
    while q != ident:
        q = tuple(p[q[v]] for v in range(n))
        k += 1
    return k


# -- vectorized separation scan ------------------------------------------------


def _batch_image(P, PINV, digits, letters, n):
    rows = digits[0].shape[0] if digits else 0
    cur = np.tile(np.arange(n, dtype=np.int64), (rows, 1))
    for axis, sign in letters:
        table = P if sign > 0 else PINV
        perm_rows = table[digits[axis]]
        cur = np.take_along_axis(perm_rows, cur, axis=1)
    return cur


def _batch_orders(img, max_order):
    rows, n = img.shape
    ident = np.arange(n, dtype=np.int64)
    orders = np.zeros(rows, dtype=np.int64)
    cur = img.copy()
    k = 1
    while True:
        hit = (cur == ident).all(axis=1) & (orders == 0)
        orders[hit] = k
        if (orders > 0).all() or k > max_order:
            break
        cur = np.take_along_axis(img, cur, axis=1)
        k += 1
    return orders


def _max_order_bound(n):
    # tiny for the degrees the oracle handles
    return lcm(*range(1, n + 1))


def oracle_separate(u, v, target, n_max: int, cap: int = DEFAULT_CAP):
    """Smallest degree and first hom giving u, v different image orders.

    ``target`` is the Basis of plain words or the amalgam presentation of
    amalgam words (then only homs with image(a) == image(b) are admitted).
    Returns (n, {generator: perm}) or None when no hom exists up to n_max.
    """
    if n_max > cap:
        raise CapExceeded(f"n_max {n_max} above cap {cap}", cap=cap)
    constraints = []
    if isinstance(target, AmalgamPresentation):
        basis = union_basis(target)
        if not (isinstance(u, AmalgamWord) and isinstance(v, AmalgamWord)):
            raise PreconditionError("amalgam oracle needs amalgam words")
        wu = flatten_to_free(target, u.syllables)
        wv = flatten_to_free(target, v.syllables)
        constraints.append(
            (
                flatten_to_free(target, [("A", target.a)]),
                flatten_to_free(target, [("B", target.b)]),
            )
        )
    elif isinstance(target, Basis):
        basis = target
        wu, wv = u, v
        if wu.basis != basis or wv.basis != basis:
            raise PreconditionError("words must live over the target basis")
    else:
        raise PreconditionError(f"unsupported oracle target {target!r}")

    for n in range(1, n_max + 1):
        found = _scan_degree(basis, wu, wv, constraints, n)
        if found is not None:
            return found
    return None


def _scan_degree(basis, wu, wv, constraints, n):
    perms = _sym(n)
    fact = len(perms)
    P = np.array(perms, dtype=np.int64)
    PINV = np.argsort(P, axis=1)

    # a constraint between two bare generators identifies their axes, which
    # is dramatically cheaper than enumerate-and-filter
    alias = {}
    masks = []
    for wa, wb in constraints:
        if (
            len(wa.letters) == 1
            and len(wb.letters) == 1
            and wa.letters[0][1] == 1
            and wb.letters[0][1] == 1
        ):
            alias[wb.letters[0][0]] = wa.letters[0][0]
        else:
            masks.append((wa, wb))
    constraints = masks

    def canon(gen):
        return alias.get(gen, gen)

    used = sorted(
        {canon(gen) for w in [wu, wv] for gen, _ in w.letters}
        | {canon(gen) for a, b in constraints for w in (a, b) for gen, _ in w.letters}
    )
    # unused generators contribute identity images in the first matching hom
    axis_of = {gen: i for i, gen in enumerate(used)}
    for gen, target in alias.items():
        if target in axis_of:
            axis_of[gen] = axis_of[target]
    raxes = len(used)
    total = fact**raxes
    max_ord = _max_order_bound(n)

    for start in range(0, max(total, 1), _CHUNK):
        stop = min(start + _CHUNK, total)
        if stop <= start:
            break
        flat = np.arange(start, stop, dtype=np.int64)
        digits = []
        for axis in range(raxes):
            stride = fact ** (raxes - 1 - axis)
            digits.append((flat // stride) % fact)
        mask = np.ones(stop - start, dtype=bool)
        for wa, wb in constraints:
            ia = _batch_image(P, PINV, digits, [(axis_of[g], s) for g, s in wa.letters], n)
            ib = _batch_image(P, PINV, digits, [(axis_of[g], s) for g, s in wb.letters], n)
            mask &= (ia == ib).all(axis=1)
        if not mask.any():
            continue
        img_u = _batch_image(P, PINV, digits, [(axis_of[g], s) for g, s in wu.letters], n)
        img_v = _batch_image(P, PINV, digits, [(axis_of[g], s) for g, s in wv.letters], n)
        ord_u = _batch_orders(img_u, max_ord)
        ord_v = _batch_orders(img_v, max_ord)
        hits = mask & (ord_u != ord_v)
        if hits.any():
            row = int(np.argmax(hits))
            hom = {}
            for name in basis.names:
                gen = basis.index(name)
                if gen in axis_of:
                    hom[name] = perms[int(digits[axis_of[gen]][row])]
                else:
                    hom[name] = tuple(range(n))
            return n, hom
    return None


def oracle_consistency(engine_output: FiniteQuotient, u, v) -> str:
    """Recompute orders on the engine output and confirm the separation claim."""
    graph = engine_output.graph
    pres = engine_output.source
    words = []
    for item in (u, v):
        if isinstance(item, AmalgamWord):
            if not isinstance(pres, AmalgamPresentation):
                return "mismatch"
            words.append(flatten_to_free(pres, item.syllables))
        else:
            words.append(item)
    orders = [element_order(graph, w) for w in words]
    if orders[0] == orders[1]:
        return "mismatch"
    if not engine_output.check_witnesses():
        return "mismatch"
    return "ok"


def hom_to_quotient(basis: Basis, hom: Dict[str, tuple], witnesses=()) -> FiniteQuotient:
    """Package an oracle hom as a FiniteQuotient over its graph."""
    n = len(next(iter(hom.values())))
    graph = ActionGraph(basis, n, tuple(tuple(hom[name]) for name in basis.names))
    q = FiniteQuotient(graph, basis, {})
    record_orders(q, witnesses)
    return q
