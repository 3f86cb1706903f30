"""Cover surgery on action graphs of free groups.

The splice takes p copies of a graph, cuts one edge of a chosen cycle in
every copy and reconnects copy i to copy i+1 cyclically, multiplying that
cycle's length by p.  On top of it sit three searches: quotients whose
cycles have no near vertices, the order-equalization engine, and quotients
realizing a prescribed element order exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Sequence, Tuple

from .action_graph import (
    ActionGraph,
    FiniteQuotient,
    bfs_closure,
    compose,
    element_order,
    graph_disjoint_union,
    has_l_near,
    identity_perm,
    image_perm,
    invert,
    longest_orbit,
    perm_order,
    record_orders,
    u_cycles,
    validate,
)
from .budget import Budget, as_budget
from .errors import BudgetExceeded, PreconditionError
from .words import (
    Basis,
    Word,
    commensurable,
    cyclic_reduce,
    primitive_root,
    reduce,
    word_to_text,
)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def next_prime(n: int) -> int:
    """The least prime greater than n."""
    q = n + 1
    while not is_prime(q):
        q += 1
    return q


# -- the splice ----------------------------------------------------------------


@dataclass(frozen=True)
class SpliceSpec:
    word: Word
    cycle_start: int
    edge_index: int
    copies: int


def _orbit_of(p, v):
    orbit = [v]
    w = p[v]
    while w != v:
        orbit.append(w)
        w = p[w]
    return orbit


def splice(g: ActionGraph, spec: SpliceSpec) -> ActionGraph:
    """Cyclic cover surgery along one edge of the selected cycle."""
    validate(g)
    w = spec.word
    if spec.copies < 1:
        raise PreconditionError("copies must be >= 1", code="INVALID_SPEC")
    if not w.is_reduced() or w.is_empty():
        raise PreconditionError("splice word must be reduced and nonempty", code="INVALID_SPEC")
    if not 0 <= spec.cycle_start < g.degree:
        raise PreconditionError("cycle start out of range", code="INVALID_SPEC")
    p_img = image_perm(g, w)
    orbit = _orbit_of(p_img, spec.cycle_start)
    edge_count = len(orbit) * len(w)
    if not 0 <= spec.edge_index < edge_count:
        raise PreconditionError(
            f"edge index {spec.edge_index} not on the representative "
            f"({edge_count} edges)",
            code="EDGE_NOT_ON_CYCLE",
        )

    gen, src = _cut_edge_key(g, w, spec.cycle_start, spec.edge_index)
    sign = w.letters[spec.edge_index % len(w)][1]
    dst = g.perms[gen][src]

    n, p = g.degree, spec.copies
    new_perms = []
    for gi in range(g.basis.rank):
        base = g.perms[gi]
        col = [base[u] + c * n for c in range(p) for u in range(n)]
        if gi == gen:
            # traversal along the cycle direction always advances one copy
            shift = 1 if sign > 0 else -1
            for c in range(p):
                col[src + c * n] = dst + ((c + shift) % p) * n
        new_perms.append(tuple(col))
    return ActionGraph(g.basis, n * p, tuple(new_perms))


# -- shared candidate families ---------------------------------------------


def cyclic_power_graph(basis: Basis, mod: int, evec: Sequence[int]) -> ActionGraph:
    perms = tuple(
        tuple((v + e) % mod for v in range(mod)) for e in (e % mod for e in evec)
    )
    return ActionGraph(basis, mod, perms)


def abelian_power_graph(basis: Basis, mod: int) -> ActionGraph:
    """Cayley graph of (Z/mod)^rank, generator i shifting coordinate i."""
    rank = basis.rank
    degree = mod**rank
    strides = [mod ** (rank - 1 - i) for i in range(rank)]

    def enc(coords):
        return sum(c * s for c, s in zip(coords, strides))

    verts = list(itertools.product(range(mod), repeat=rank))
    perms = []
    for i in range(rank):
        img = [0] * degree
        for coords in verts:
            shifted = list(coords)
            shifted[i] = (shifted[i] + 1) % mod
            img[enc(coords)] = enc(shifted)
        perms.append(tuple(img))
    return ActionGraph(basis, degree, tuple(perms))


class TruncatedUnitGroup:
    """Units 1 + (ideal) in the free associative algebra over Z/p^m,
    truncated above total degree d.  A finite p-group; elements are stored
    as coefficient tuples over the nonempty monomials."""

    def __init__(self, rank: int, p: int, m: int, d: int):
        self.rank, self.p, self.m, self.d = rank, p, m, d
        self.mod = p**m
        self.monomials: List[Tuple[int, ...]] = []
        for deg in range(1, d + 1):
            self.monomials.extend(itertools.product(range(rank), repeat=deg))
        self.index = {mon: i for i, mon in enumerate(self.monomials)}
        self.identity = (0,) * len(self.monomials)

    def gen(self, i: int) -> Tuple[int, ...]:
        coeffs = [0] * len(self.monomials)
        coeffs[self.index[(i,)]] = 1 % self.mod
        return tuple(coeffs)

    def gen_inv(self, i: int) -> Tuple[int, ...]:
        coeffs = [0] * len(self.monomials)
        for k in range(1, self.d + 1):
            coeffs[self.index[(i,) * k]] = (-1) ** k % self.mod
        return tuple(coeffs)

    def mult(self, e1, e2) -> Tuple[int, ...]:
        out = [(a + b) % self.mod for a, b in zip(e1, e2)]
        for m1, i1 in self.index.items():
            c1 = e1[i1]
            if not c1:
                continue
            room = self.d - len(m1)
            for m2, i2 in self.index.items():
                if len(m2) > room:
                    continue
                c2 = e2[i2]
                if not c2:
                    continue
                i = self.index[m1 + m2]
                out[i] = (out[i] + c1 * c2) % self.mod
        return tuple(out)

    def word_image(self, w: Word) -> Tuple[int, ...]:
        cur = self.identity
        for i, s in w.letters:
            cur = self.mult(cur, self.gen(i) if s > 0 else self.gen_inv(i))
        return cur

    def element_order(self, e) -> int:
        k = 1
        cur = e
        while cur != self.identity:
            cur = self.mult(cur, e)
            k += 1
            if k > self.mod ** (self.d + 1):
                raise RuntimeError("runaway order computation")
        return k

    def closure(self, cap: int, budget: Budget) -> List[Tuple[int, ...]]:
        """Elements in BFS order; one budget unit per element past the
        identity, charged before the cap check."""
        gens = [self.gen(i) for i in range(self.rank)]
        gens += [self.gen_inv(i) for i in range(self.rank)]
        elems = []
        for e in bfs_closure(self.identity, gens, self.mult):
            if elems:
                budget.charge(1, "unitriangular closure")
                if len(elems) >= cap:
                    raise BudgetExceeded(f"unitriangular group above cap {cap}", cap=cap)
            elems.append(e)
        return elems

    def cayley_graph(self, basis: Basis, cap: int, budget: Budget) -> ActionGraph:
        elems = self.closure(cap, budget)
        index = {e: i for i, e in enumerate(elems)}
        perms = []
        for i in range(self.rank):
            gperm = self.gen(i)
            perms.append(tuple(index[self.mult(e, gperm)] for e in elems))
        return ActionGraph(basis, len(elems), tuple(perms))


# -- quotients with no near vertices -------------------------------------------


def _arith_simple_and_order(mod: int, evec, w: Word) -> Tuple[bool, int]:
    """(all cycles simple, image order) for a cyclic quotient, arithmetically."""
    total = 0
    prefixes = []
    for i, s in w.letters:
        total = (total + s * evec[i]) % mod
        prefixes.append(total)
    order = mod // gcd(total, mod) if total else 1
    visited = set()
    for t in range(order):
        base = t * total % mod
        for s_j in prefixes:
            visited.add((base + s_j) % mod)
    simple = len(visited) == order * len(w.letters)
    return simple, order


def _graph_words_ok(g: ActionGraph, words, l: int, min_order: int) -> bool:
    for w in words:
        if element_order(g, w) < min_order:
            return False
        for c in u_cycles(g, w):
            if has_l_near(g, c, l):
                return False
    return True


# (truncation degree d, exponent m) of the unitriangular groups over Z/p^m,
# in the order they are tried
_UNITRIANGULAR_LADDER = [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (4, 1)]
# most elements a unitriangular group may have here: its regular
# representation, one vertex per element, is the graph that gets built
_REGULAR_REP_CAP = 20000
# most elements of a small p-group action's closure in the last-resort search
_P_ACTION_GROUP_CAP = 512


def find_simple_quotient(
    words: Sequence[Word],
    p: int,
    l: int,
    budget=None,
    min_order: int = 1,
) -> FiniteQuotient:
    """Quotient onto a finite p-group where every input word's cycles have
    no l-near vertices (l = 0: all cycles simple) and orders >= min_order.

    Candidates are tried deterministically: cyclic p-power quotients by
    exponent vector, then truncated unitriangular images, then a bounded
    enumeration of small p-group actions.
    """
    budget = as_budget(budget)
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime", code="NOT_PRIME")
    words = [reduce(w) for w in words]
    if any(w.is_empty() for w in words):
        raise PreconditionError("words must be nonempty", code="EMPTY_WORD")
    basis = words[0].basis
    rank = basis.rank

    # cyclic quotients Z/p^m via exponent vectors
    mod = p
    while mod <= 4096 and mod**rank <= 200_000:
        for evec in itertools.product(range(mod), repeat=rank):
            # normalize by unit scaling: first p-coprime entry must be 1;
            # vectors with no unit entry repeat a smaller modulus blockwise
            unit = next((e for e in evec if e % p), None)
            if unit != 1:
                continue
            budget.charge(1, "cyclic candidate")
            ok = True
            for w in words:
                simple, order = _arith_simple_and_order(mod, evec, w)
                if order < min_order or not simple:
                    ok = False
                    break
            if not ok:
                continue
            g = cyclic_power_graph(basis, mod, evec)
            budget.charge(mod, "cyclic graph")
            if _graph_words_ok(g, words, l, min_order):
                q = FiniteQuotient(g, basis, {})
                return record_orders(q, words)
        mod *= p

    # truncated unitriangular images over Z/p^m
    for d, m in _UNITRIANGULAR_LADDER:
        budget.charge(1, "unitriangular candidate")
        group = TruncatedUnitGroup(rank, p, m, d)
        try:
            g = group.cayley_graph(basis, _REGULAR_REP_CAP, budget)
        except BudgetExceeded:
            continue
        if _graph_words_ok(g, words, l, min_order):
            q = FiniteQuotient(g, basis, {})
            return record_orders(q, words)

    # bounded enumeration of small p-group actions (last-resort fallback);
    # every element of a p-group on d points has order at most d, so a
    # degree below min_order cannot qualify
    for degree in sorted({p, 2 * p, p * p}):
        if degree > 8 or degree < min_order:
            continue
        pool = [
            perm
            for perm in itertools.permutations(range(degree))
            if _is_p_power(perm_order(perm), p)
        ]
        tried = 0
        for images in itertools.product(pool, repeat=rank):
            tried += 1
            if tried > 5000:
                break
            budget.charge(1, "p-action candidate")
            gens = list(images) + [invert(perm) for perm in images]
            closure = bfs_closure(identity_perm(degree), gens, compose)
            size = sum(1 for _ in itertools.islice(closure, _P_ACTION_GROUP_CAP + 1))
            if size > _P_ACTION_GROUP_CAP or not _is_p_power(size, p):
                continue
            g = ActionGraph(basis, degree, tuple(images))
            if _graph_words_ok(g, words, l, min_order):
                q = FiniteQuotient(g, basis, {})
                return record_orders(q, words)

    raise BudgetExceeded("no qualifying quotient in the candidate family")


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


# -- order equalization ---------------------------------------------------------


@dataclass
class EqualizeReport:
    quotient: FiniteQuotient
    rounds: int
    orders: Dict[str, int]
    shared_path_lengths: List[List[int]] = field(default_factory=list)


def _cycle_lengths_through(g: ActionGraph, w: Word, edge_key) -> Tuple[int, int]:
    """(max length through the edge, max length avoiding it) over w-cycles;
    an edge is keyed (gen, src) by its positive orientation."""
    max_through = 0
    max_avoiding = 0
    for c in u_cycles(g, w):
        if any(
            ((gen, v_from) if sign > 0 else (gen, v_to)) == edge_key
            for v_from, gen, sign, v_to in c.edges()
        ):
            max_through = max(max_through, c.length)
        else:
            max_avoiding = max(max_avoiding, c.length)
    return max_through, max_avoiding


def _cut_edge_key(g: ActionGraph, w: Word, anchor: int, index: int):
    """(gen, src) of the positive edge under position ``index`` of the
    representative of w that starts at ``anchor``."""
    inverses = {gen: invert(g.perms[gen]) for gen, sign in set(w.letters) if sign < 0}
    v = anchor
    for pos in range(index):
        gen, sign = w.letters[pos % len(w)]
        v = g.perms[gen][v] if sign > 0 else inverses[gen][v]
    gen, sign = w.letters[index % len(w)]
    if sign > 0:
        return (gen, v)
    return (gen, inverses[gen][v])


_MAX_GROW_STEPS = 24


def _grow_until_watcher_diverges(g, w_spl, watchers, p, budget):
    """Splice the maximal w_spl-cycle edge by edge until, for some watcher,
    the spliced cycle would no longer dominate all its maximal cycles.

    Returns (graph_before_final_splice, anchor, splices_done, failing_key).
    The caller performs the final splice itself, usually with boosted copies.
    """
    anchor, _ = longest_orbit(image_perm(g, w_spl))
    k = 0
    while True:
        cut = _cut_edge_key(g, w_spl, anchor, k)
        failing = None
        for key, watcher in watchers:
            through, avoiding = _cycle_lengths_through(g, watcher, cut)
            if through == 0 or p * through <= avoiding:
                failing = key
                break
        if failing is not None:
            return g, anchor, k, failing
        budget.charge(g.degree * (p - 1) + 1, "equalization splice")
        g = splice(g, SpliceSpec(w_spl, anchor, k, p))
        k += 1
        if k > _MAX_GROW_STEPS:
            raise BudgetExceeded("shared path grew past the step cap", steps=k)


def equalize_orders(us: Sequence[Word], v: Word, p: int, N: int, budget=None) -> EqualizeReport:
    """Finite p-group quotient with |img u_1| = ... = |img u_k| > |img v| > 1
    and |img u_1| > N.

    Strategy: start from a quotient with all cycles simple and orders above
    N, then repeatedly splice maximal cycles — growing a shared path until
    some lagging element's maximal cycles avoid it — and balance the copy
    counts across one component per minimal-order element.
    """
    budget = as_budget(budget)
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime", code="NOT_PRIME")
    if N < 1:
        raise PreconditionError("N must be positive", code="INVALID_SPEC")
    us = list(us)
    for i in range(len(us)):
        for j in range(i + 1, len(us)):
            if commensurable(us[i], us[j]):
                raise PreconditionError(
                    f"u[{i}] and u[{j}] are commensurable",
                    code="PRECONDITION_COMMENSURABLE",
                    i=i,
                    j=j,
                )
        if commensurable(us[i], v):
            raise PreconditionError(
                f"u[{i}] and v are commensurable",
                code="PRECONDITION_COMMENSURABLE",
                i=i,
                j="v",
            )

    exponents = []
    cores = []
    for w in us + [v]:
        root, exp = primitive_root(w)
        exponents.append(exp)
        core, _ = cyclic_reduce(root)
        cores.append(core)
    if p <= max(exponents):
        raise PreconditionError(
            f"prime {p} must exceed every primitive-power exponent "
            f"(max {max(exponents)})",
            code="P_TOO_SMALL",
        )
    cores_us, core_v = cores[:-1], cores[-1]

    base = find_simple_quotient(cores_us + [core_v], p, 0, budget, min_order=N + 1)
    g = base.graph

    rounds = 0
    shared_lengths: List[List[int]] = []
    guard = 0
    while True:
        orders = [element_order(g, c) for c in cores_us]
        order_v = element_order(g, core_v)
        omin = min(orders)
        if all(o == omin for o in orders) and omin > order_v:
            break
        guard += 1
        if guard > 40:
            raise BudgetExceeded("order equalization made no progress", orders=orders)

        m_class = [i for i, o in enumerate(orders) if o == omin]
        laggers = [(i, cores_us[i]) for i, o in enumerate(orders) if o > omin]
        if laggers:
            _, _, _, h_key = _grow_until_watcher_diverges(
                g, cores_us[m_class[0]], laggers, p, budget
            )
            watcher = (h_key, cores_us[h_key])
        else:
            watcher = ("v", core_v)

        probes = []
        for i in m_class:
            gp, anchor, done, _ = _grow_until_watcher_diverges(
                g, cores_us[i], [watcher], p, budget
            )
            probes.append((i, gp, anchor, done))
        radii = [done + 1 for _, _, _, done in probes]
        biggest = max(radii)
        comps = []
        for (i, gp, anchor, done), r_i in zip(probes, radii):
            q_i = biggest + 1 - r_i
            budget.charge(gp.degree * (p**q_i - 1) + 1, "balanced splice")
            comps.append(splice(gp, SpliceSpec(cores_us[i], anchor, done, p**q_i)))
        g = graph_disjoint_union(comps)
        rounds += sum(radii)
        shared_lengths.append(radii)

    quotient = FiniteQuotient(g, us[0].basis, {})
    record_orders(quotient, us + [v])
    final = [element_order(g, u) for u in us]
    final_v = element_order(g, v)
    if not (
        all(o == final[0] for o in final) and final[0] > final_v > 1 and final[0] > N
    ):
        raise BudgetExceeded(
            "equalization ended without meeting the order pattern",
            orders=final,
            order_v=final_v,
        )
    return EqualizeReport(
        quotient=quotient,
        rounds=rounds,
        orders=dict(quotient.witness_orders),
        shared_path_lengths=shared_lengths,
    )


# -- exact orders ----------------------------------------------------------------


def _exponent_vector(w: Word) -> List[int]:
    out = [0] * w.basis.rank
    for i, s in w.letters:
        out[i] += s
    return out


def _bezout(values: List[int]) -> Tuple[int, List[int]]:
    """gcd and coefficients c with sum(c_i * values_i) = gcd."""
    g, coeffs = 0, [0] * len(values)
    for i, val in enumerate(values):
        if val == 0 or (g and abs(val) % g == 0):
            continue
        if g == 0:
            g, coeffs = abs(val), [0] * len(values)
            coeffs[i] = 1 if val > 0 else -1
            continue
        x, y, g = _ext_gcd(g, abs(val))
        coeffs = [c * x for c in coeffs]
        coeffs[i] = y if val > 0 else -y
    return g, coeffs


def _ext_gcd(a: int, b: int) -> Tuple[int, int, int]:
    if b == 0:
        return 1, 0, a
    x, y, g = _ext_gcd(b, a % b)
    return y, x - (a // b) * y, g


def _factorize(n: int) -> List[Tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def magnus_coefficients(w: Word, max_degree: int) -> Dict[Tuple[int, ...], int]:
    """Integer coefficients of the truncated series image of w under
    generator i -> 1 + X_i (inverse letters expand as geometric series)."""
    series: Dict[Tuple[int, ...], int] = {(): 1}
    for i, s in w.letters:
        if s > 0:
            factor = {(): 1, (i,): 1}
        else:
            factor = {(): 1}
            for k in range(1, max_degree + 1):
                factor[(i,) * k] = (-1) ** k
        new: Dict[Tuple[int, ...], int] = {}
        for m1, c1 in series.items():
            for m2, c2 in factor.items():
                mono = m1 + m2
                if len(mono) > max_degree:
                    continue
                new[mono] = new.get(mono, 0) + c1 * c2
        series = {m: c for m, c in new.items() if c}
    series.pop((), None)
    return series


_MAGNUS_DEGREE_CAP = 5


def _support_basis(w: Word) -> Tuple[Basis, Word, List[int]]:
    """Restrict w to the generators it uses; returns (basis, word, support)."""
    support = sorted({i for i, _ in w.letters})
    names = tuple(w.basis.names[i] for i in support)
    remap = {i: j for j, i in enumerate(support)}
    small = Word(Basis(names), tuple((remap[i], s) for i, s in w.letters))
    return small.basis, small, support


def _lift_graph(small: ActionGraph, basis: Basis, support: List[int]) -> ActionGraph:
    """Extend a support-only graph with identity action for unused generators."""
    ident = tuple(range(small.degree))
    perms = []
    pos = {i: j for j, i in enumerate(support)}
    for i in range(basis.rank):
        perms.append(small.perms[pos[i]] if i in pos else ident)
    return ActionGraph(basis, small.degree, tuple(perms))


def _prime_power_component(w: Word, q: int, a: int, budget: Budget) -> ActionGraph:
    """Graph where w's image has order exactly q**a, for w with q-divisible
    (or zero) exponent vector, via truncated unitriangular images."""
    small_basis, small_w, support = _support_basis(w)
    e_deg = None
    for d in range(1, _MAGNUS_DEGREE_CAP + 1):
        coeffs = magnus_coefficients(small_w, d)
        level = {m: c for m, c in coeffs.items() if len(m) == d}
        if any(c % q for c in level.values()):
            e_deg = d
            break
    if e_deg is None:
        raise BudgetExceeded(
            f"no series coefficient of {word_to_text(w)} survives mod {q} "
            f"up to degree {_MAGNUS_DEGREE_CAP}"
        )
    for m in range(a, a + _MAGNUS_DEGREE_CAP + 3):
        budget.charge(1, "unitriangular order scan")
        group = TruncatedUnitGroup(small_basis.rank, q, m, e_deg)
        order = group.element_order(group.word_image(small_w))
        if order == q**a:
            small_graph = group.cayley_graph(small_basis, _REGULAR_REP_CAP, budget)
            return _lift_graph(small_graph, w.basis, support)
        if order > q**a:
            break
    raise BudgetExceeded(f"could not realize order {q}**{a} for {word_to_text(w)}")


def exact_order_quotient(w: Word, n: int, budget=None) -> FiniteQuotient:
    """Finite quotient giving w image order exactly n."""
    budget = as_budget(budget)
    red = reduce(w)
    if red.is_empty():
        raise PreconditionError("empty word has no nontrivial orders", code="EMPTY_WORD")
    _, exp = primitive_root(red)
    if exp != 1:
        raise PreconditionError("word must not be a proper power", code="PROPER_POWER")
    if n < 1:
        raise PreconditionError("order must be positive", code="INVALID_SPEC")
    basis = w.basis
    if n == 1:
        g = ActionGraph(basis, 1, tuple((0,) for _ in range(basis.rank)))
        q = FiniteQuotient(g, basis, {})
        return record_orders(q, [w])

    evec = _exponent_vector(red)
    g_val, coeffs = _bezout(evec)
    if g_val != 0 and gcd(g_val, n) == 1:
        inv = pow(g_val, -1, n)
        shifts = [c * inv % n for c in coeffs]
        graph = cyclic_power_graph(basis, n, shifts)
    else:
        comps = []
        for qprime, a in _factorize(n):
            budget.charge(1, "prime power component")
            if g_val != 0 and g_val % qprime != 0:
                inv = pow(g_val, -1, qprime**a)
                shifts = [c * inv % (qprime**a) for c in coeffs]
                comps.append(cyclic_power_graph(basis, qprime**a, shifts))
            else:
                comps.append(_prime_power_component(red, qprime, a, budget))
        graph = graph_disjoint_union(comps)

    if element_order(graph, red) != n:
        raise BudgetExceeded(
            f"constructed quotient has order {element_order(graph, red)}, wanted {n}"
        )
    q = FiniteQuotient(graph, basis, {})
    return record_orders(q, [w])
