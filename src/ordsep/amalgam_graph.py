"""Finite action graphs of the amalgam whose free factors act freely.

Vertices carry two regular block structures, one per factor group, agreeing
on the amalgamated cyclic subgroup.  Gluing builds such a graph from a
matched pair of factor quotients; the coset-twist splice takes cyclic covers
cut along one subgroup orbit; the separation engine drives both until the
two input words acquire images of different orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .action_graph import (
    ActionGraph,
    FiniteQuotient,
    bfs_closure,
    compose,
    element_order,
    graph_disjoint_union,
    graph_from_json,
    graph_to_json,
    image_perm,
    invert,
    longest_orbit,
    perm_orbits,
    quotient_from_json,
    quotient_to_json,
    validate,
)
from .amalgam import (
    AmalgamPresentation,
    AmalgamWord,
    _classify_core,
    amalgam_word_to_text,
    conjugate_in_amalgam,
    cyclically_reduce_amalgam,
    flatten_to_free,
    matched_pair,
    presentation_from_json,
    presentation_to_json,
    reduce_amalgam,
    union_basis,
)
from .budget import Budget, as_budget
from .errors import (
    BudgetExceeded,
    PreconditionError,
    UndecidedConjugacy,
    ValidationError,
)
from .surgery import equalize_orders, exact_order_quotient, next_prime
from .words import (
    Basis,
    Word,
    commensurable,
    conjugate_in_free,
    cyclic_reduce,
    primitive_root,
    reduce,
)

# most elements a factor group (the permutation group a factor quotient
# generates) may have: every glued vertex set is a multiple of its order
_FACTOR_GROUP_CAP = 4096


class PermGroup:
    """Closure of a permutation generating set, elements indexed in BFS order."""

    def __init__(self, gens: Sequence[Tuple[int, ...]], cap: int = _FACTOR_GROUP_CAP):
        step = list(gens) + [invert(p) for p in gens]
        self.elements: List[Tuple[int, ...]] = []
        for e in bfs_closure(tuple(range(len(gens[0]))), step, compose):
            if len(self.elements) >= cap:
                raise BudgetExceeded(f"factor group exceeds closure cap {cap}", cap=cap)
            self.elements.append(e)
        self.index: Dict[Tuple[int, ...], int] = {e: i for i, e in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def rmul_table(self, perm) -> List[int]:
        """Element-id map of right multiplication by ``perm``."""
        return [self.index[compose(e, perm)] for e in self.elements]


@dataclass(frozen=True, eq=False)
class Factor:
    """One side of a gluing, built once per factor quotient: the quotient,
    the group its generators generate, each generator's right-multiplication
    table on the group's element ids, and the orbits of right multiplication
    by the subgroup generator, each listed from its least id along powers."""

    quot: FiniteQuotient
    group: PermGroup
    tables: Tuple[List[int], ...]
    orbits: List[List[int]]


def _factor(quot: FiniteQuotient, gen: Word) -> Factor:
    group = PermGroup(quot.graph.perms)
    return Factor(
        quot,
        group,
        tuple(group.rmul_table(p) for p in quot.graph.perms),
        perm_orbits(group.rmul_table(image_perm(quot.graph, gen))),
    )


def factor_pair(
    pres: AmalgamPresentation, quot_a: FiniteQuotient, quot_b: FiniteQuotient
) -> Tuple[Factor, Factor]:
    """Both sides' factor data for one quotient pair; every gluing of the
    pair, and every graph derived from one, shares it.  Each quotient's
    generators must be its side's basis, in the same order."""
    for side, quot in (("A", quot_a), ("B", quot_b)):
        if quot.graph.basis != pres.side_basis(side):
            raise ValidationError(
                f"quotient generators {list(quot.graph.basis.names)} are not the "
                f"{side} basis {list(pres.side_basis(side).names)}",
                code="BASIS_MISMATCH",
            )
    fa, fb = _factor(quot_a, pres.a), _factor(quot_b, pres.b)
    n, nb = len(fa.orbits[0]), len(fb.orbits[0])
    if n != nb or n <= 1:
        raise PreconditionError(
            f"subgroup generator orders {n} and {nb} must match and exceed 1",
            code="ORDER_MISMATCH",
        )
    return fa, fb


def _block_perms(
    block: Sequence[int], elem: Sequence[int], tables: Sequence[Sequence[int]]
) -> List[Tuple[int, ...]]:
    """Vertex permutation of each element-id table acting on the element
    coordinate inside its block."""
    vertex = {c: v for v, c in enumerate(zip(block, elem))}
    return [tuple(vertex[(b, table[e])] for b, e in zip(block, elem)) for table in tables]


@dataclass(frozen=True)
class GluingSpec:
    """How to lay B-blocks over A-blocks: per subgroup orbit of the B side,
    the matched A-side orbit and a cyclic offset."""

    k: int
    l: int
    matching: Tuple[int, ...]
    rotations: Tuple[int, ...]


class AmalgamActionGraph:
    def __init__(
        self,
        pres: AmalgamPresentation,
        graph: ActionGraph,
        factor_a: Factor,
        factor_b: Factor,
        a_block: Sequence[int],
        a_elem: Sequence[int],
        b_block: Sequence[int],
        b_elem: Sequence[int],
    ):
        self.pres = pres
        self.graph = graph
        self.factor_a = factor_a
        self.factor_b = factor_b
        self.a_block = tuple(a_block)
        self.a_elem = tuple(a_elem)
        self.b_block = tuple(b_block)
        self.b_elem = tuple(b_elem)

    @property
    def degree(self) -> int:
        return self.graph.degree

    @property
    def n(self) -> int:
        """Order of the amalgamated subgroup's image."""
        return len(self.factor_a.orbits[0])

    def act(self, side: str, elem_id: int) -> Tuple[int, ...]:
        """Permutation of the vertices by one abstract factor-group element."""
        factor, block, elem = (
            (self.factor_a, self.a_block, self.a_elem)
            if side == "A"
            else (self.factor_b, self.b_block, self.b_elem)
        )
        group = factor.group
        return _block_perms(block, elem, [group.rmul_table(group.elements[elem_id])])[0]

    @cached_property
    def c_orbit_ids(self) -> Tuple[int, ...]:
        """Vertex -> id of its orbit under the amalgamated subgroup image."""
        c_perm = image_perm(self.graph, flatten_to_free(self.pres, [("A", self.pres.a)]))
        ids = [-1] * self.degree
        for oid, orbit in enumerate(perm_orbits(c_perm)):
            for v in orbit:
                ids[v] = oid
        return tuple(ids)

    @cached_property
    def inverse_perms(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(invert(p) for p in self.graph.perms)

    def factor_of(self, gen_name: str) -> str:
        return "A" if gen_name in self.pres.basis_a.names else "B"


def validate_amalgam_graph(g: AmalgamActionGraph) -> None:
    """Both factor structures must be free regular actions through the stored
    block coordinates, realized by the graph, and agreeing on the subgroup."""
    validate(g.graph)
    for side, factor, block, elem, basis in (
        ("A", g.factor_a, g.a_block, g.a_elem, g.pres.basis_a),
        ("B", g.factor_b, g.b_block, g.b_elem, g.pres.basis_b),
    ):
        # (block, element) coordinates: each cell of the grid
        # range(blocks) x range(|G|) names exactly one vertex
        size = len(factor.group)
        grid = {(b, e) for b in range(g.degree // size) for e in range(size)}
        if not len(block) == len(elem) == len(grid) == g.degree or set(zip(block, elem)) != grid:
            raise ValidationError(
                f"side {side} coordinates do not name each block cell once",
                code="NOT_FREE",
                side=side,
            )
        expected = _block_perms(block, elem, factor.tables)
        for gi, name in enumerate(basis.names):
            if expected[gi] != g.graph.perms[g.graph.basis.index(name)]:
                raise ValidationError(
                    f"graph does not realize the side {side} action on {name}",
                    code="NOT_ACTION",
                    side=side,
                )
    a_perm = image_perm(g.graph, flatten_to_free(g.pres, [("A", g.pres.a)]))
    b_perm = image_perm(g.graph, flatten_to_free(g.pres, [("B", g.pres.b)]))
    if a_perm != b_perm:
        raise ValidationError(
            "the two subgroup generators act differently",
            code="AGREEMENT_VIOLATION",
        )


def canonical_gluing(fa: Factor, fb: Factor) -> GluingSpec:
    size = lcm(len(fa.group), len(fb.group))
    k, l = size // len(fa.group), size // len(fb.group)
    t = k * len(fa.orbits)
    return GluingSpec(k, l, tuple(range(t)), (0,) * t)


def glue_quotient(
    pres: AmalgamPresentation,
    fa: Factor,
    fb: Factor,
    spec: GluingSpec,
    budget=None,
) -> AmalgamActionGraph:
    """Assemble the amalgam action: k regular A-blocks, B-action transported
    through the orbit matching with the given rotations."""
    budget = as_budget(budget)
    size_a, size_b = len(fa.group), len(fb.group)
    if spec.k * size_a != spec.l * size_b or spec.k < 1:
        raise PreconditionError(
            f"{spec.k} A-blocks of {size_a} cannot match {spec.l} B-blocks of {size_b}",
            code="SPEC_INVALID",
        )
    degree = spec.k * size_a
    budget.charge(degree, "glued graph")

    n = len(fa.orbits[0])
    per_a, per_b = len(fa.orbits), len(fb.orbits)
    total = spec.k * per_a
    if total != spec.l * per_b or len(spec.matching) != total or len(
        spec.rotations
    ) != total:
        raise PreconditionError("orbit matching has the wrong shape", code="SPEC_INVALID")
    if sorted(spec.matching) != list(range(total)):
        raise PreconditionError("matching must be a bijection", code="SPEC_INVALID")
    if any(not 0 <= r < n for r in spec.rotations):
        raise PreconditionError("rotation out of range", code="SPEC_INVALID")

    a_block = [v // size_a for v in range(degree)]
    a_elem = [v % size_a for v in range(degree)]
    # A-side orbit index: block-major, then orbit order within the block;
    # B-orbit j lies along A-orbit matching[j], shifted by rotations[j]
    b_block = [-1] * degree
    b_elem = [-1] * degree
    for j in range(total):
        blk_b, local_b = divmod(j, per_b)
        blk_a, local_a = divmod(spec.matching[j], per_a)
        orbit_a, orbit_b = fa.orbits[local_a], fb.orbits[local_b]
        for t in range(n):
            v = blk_a * size_a + orbit_a[(t + spec.rotations[j]) % n]
            b_block[v], b_elem[v] = blk_b, orbit_b[t]

    perms = _block_perms(a_block, a_elem, fa.tables) + _block_perms(
        b_block, b_elem, fb.tables
    )
    graph = ActionGraph(union_basis(pres), degree, tuple(perms))
    aag = AmalgamActionGraph(pres, graph, fa, fb, a_block, a_elem, b_block, b_elem)
    validate_amalgam_graph(aag)
    return aag


def coset_subgraph(g: AmalgamActionGraph, p: int, kind: str) -> Tuple[int, ...]:
    """Vertices of the maximal connected subgraph at p of the given kind."""
    if kind == "A":
        return tuple(v for v in range(g.degree) if g.a_block[v] == g.a_block[p])
    if kind == "B":
        return tuple(v for v in range(g.degree) if g.b_block[v] == g.b_block[p])
    if kind == "C":
        ids = g.c_orbit_ids
        return tuple(v for v in range(g.degree) if ids[v] == ids[p])
    raise PreconditionError(f"unknown subgraph kind {kind!r}", code="INVALID_SPEC")


Edge = Tuple[int, str, int]  # (begin vertex, generator name, sign)


def _edge_ends(g: AmalgamActionGraph, e: Edge) -> Tuple[int, int]:
    v, name, sign = e
    gi = g.graph.basis.index(name)
    w = g.graph.perms[gi][v] if sign > 0 else g.inverse_perms[gi][v]
    return v, w


def c_near_edges(g: AmalgamActionGraph, e: Edge, f: Edge) -> bool:
    """Edges joining the same pair of subgroup orbits with labels in one factor."""
    if g.factor_of(e[1]) != g.factor_of(f[1]):
        return False
    ids = g.c_orbit_ids
    (a1, w1), (a2, w2) = _edge_ends(g, e), _edge_ends(g, f)
    return ids[a1] == ids[a2] and ids[w1] == ids[w2]


def c_near_paths(g: AmalgamActionGraph, E: Sequence[Edge], F: Sequence[Edge]) -> bool:
    if len(E) != len(F):
        raise PreconditionError("paths have different lengths", code="LENGTH_MISMATCH")
    return all(c_near_edges(g, e, f) for e, f in zip(E, F))


# -- syllable-level representatives ------------------------------------------


def _check_alternating(u: AmalgamWord) -> None:
    if len(u.syllables) < 2 or len(u.syllables) % 2:
        raise PreconditionError(
            "word must be cyclically reduced and alternating",
            code="NOT_CYCLICALLY_REDUCED",
        )
    for i, (side, _) in enumerate(u.syllables):
        if side != u.syllables[0][0] and i % 2 == 0 or side == u.syllables[0][0] and i % 2:
            raise PreconditionError(
                "sides must alternate", code="NOT_CYCLICALLY_REDUCED"
            )


def syllable_rep(
    g: AmalgamActionGraph, u: AmalgamWord, start: int
) -> List[Tuple[int, str, int]]:
    """Syllable-granular representative from start: (begin, side, end) steps."""
    word = flatten_to_free(g.pres, u.syllables)
    perm = image_perm(g.graph, word)
    orbit = 1
    v = perm[start]
    while v != start:
        v = perm[v]
        orbit += 1
    steps = []
    v = start
    for _ in range(orbit):
        for side, syl in u.syllables:
            w = v
            target = image_perm_step(g, w, side, syl)
            steps.append((v, side, target))
            v = target
    assert v == start
    return steps


def image_perm_step(g: AmalgamActionGraph, v: int, side: str, syl: Word) -> int:
    shift = 0 if side == "A" else g.pres.basis_a.rank
    for i, s in syl.letters:
        gi = i + shift
        v = g.graph.perms[gi][v] if s > 0 else g.inverse_perms[gi][v]
    return v


def rep_has_near_vertices(g: AmalgamActionGraph, verts: Sequence[int]) -> bool:
    """Near-vertex check over factor-labeled edges: distance 1 means sharing
    an A-block or a B-block, so positions at cyclic distance >= 2 may not."""
    n = len(verts)
    for i in range(n):
        for j in range(i + 1, n):
            sep = min(j - i, n - (j - i))
            if verts[i] == verts[j]:
                return True
            if sep >= 2 and (
                g.a_block[verts[i]] == g.a_block[verts[j]]
                or g.b_block[verts[i]] == g.b_block[verts[j]]
            ):
                return True
    return False


def word_reps_near_free(g: AmalgamActionGraph, u: AmalgamWord) -> bool:
    """True when no representative of any u-cycle has near vertices."""
    word = flatten_to_free(g.pres, u.syllables)
    perm = image_perm(g.graph, word)
    for orbit in perm_orbits(perm):
        steps = syllable_rep(g, u, orbit[0])
        if rep_has_near_vertices(g, [s[0] for s in steps]):
            return False
    return True


# -- the coset-twist splice ----------------------------------------------------


def amalgam_splice(
    g: AmalgamActionGraph,
    u: AmalgamWord,
    rep_start: int,
    position: int,
    copies: int,
) -> AmalgamActionGraph:
    """Cyclic cover cut along one subgroup orbit: all edges of the selected
    syllable's factor leaving that orbit are rerouted one copy forward."""
    if copies < 1:
        raise PreconditionError("copies must be >= 1", code="INVALID_SPEC")
    ru = reduce_amalgam(u, g.pres)
    _check_alternating(ru)
    steps = syllable_rep(g, ru, rep_start)
    if not 0 <= position < len(steps):
        raise PreconditionError(
            f"position {position} not on the representative ({len(steps)} edges)",
            code="INVALID_POSITION",
        )
    begin, side, target = steps[position]
    ids = g.c_orbit_ids
    cut_orbit = ids[target]
    chi = [1 if ids[v] == cut_orbit else 0 for v in range(g.degree)]

    V, m = g.degree, copies
    basis = g.graph.basis
    rank_a = g.pres.basis_a.rank
    new_perms = []
    for gi in range(basis.rank):
        base = g.graph.perms[gi]
        gen_side = "A" if gi < rank_a else "B"
        col = [0] * (V * m)
        for c in range(m):
            off = c * V
            if gen_side != side:
                for v in range(V):
                    col[v + off] = base[v] + off
            else:
                for v in range(V):
                    w = base[v]
                    col[v + off] = w + ((c + chi[w] - chi[v]) % m) * V
        new_perms.append(tuple(col))
    graph = ActionGraph(basis, V * m, tuple(new_perms))

    a_block = [0] * (V * m)
    a_elem = [0] * (V * m)
    b_block = [0] * (V * m)
    b_elem = [0] * (V * m)
    for c in range(m):
        for v in range(V):
            nv = v + c * V
            if side == "A":
                a_block[nv] = g.a_block[v] * m + (c - chi[v]) % m
                b_block[nv] = g.b_block[v] * m + c
            else:
                a_block[nv] = g.a_block[v] * m + c
                b_block[nv] = g.b_block[v] * m + (c - chi[v]) % m
            a_elem[nv] = g.a_elem[v]
            b_elem[nv] = g.b_elem[v]
    out = AmalgamActionGraph(
        g.pres, graph, g.factor_a, g.factor_b, a_block, a_elem, b_block, b_elem
    )
    validate_amalgam_graph(out)
    return out


def aag_product(g1: AmalgamActionGraph, g2: AmalgamActionGraph) -> AmalgamActionGraph:
    """Synchronized product of two amalgam actions over the same factor
    quotients: the factor groups act diagonally on the vertex pairs.  Blocks
    multiply, which is what the near-vertex-free searches need."""
    if g1.pres is not g2.pres and g1.pres != g2.pres:
        raise PreconditionError("products need a common presentation", code="INVALID_SPEC")
    if (
        g1.factor_a.group.elements != g2.factor_a.group.elements
        or g1.factor_b.group.elements != g2.factor_b.group.elements
    ):
        raise PreconditionError("products need common factor groups", code="INVALID_SPEC")
    v2 = g2.degree
    degree = g1.degree * v2
    basis = g1.graph.basis
    perms = []
    for gi in range(basis.rank):
        p1, p2 = g1.graph.perms[gi], g2.graph.perms[gi]
        perms.append(
            tuple(p1[a] * v2 + p2[b] for a in range(g1.degree) for b in range(v2))
        )
    graph = ActionGraph(basis, degree, tuple(perms))

    def diagonal_coords(group, blocks1, elems1, blocks2, elems2):
        # invariant of the diagonal orbit: both blocks and the difference
        # element e2 * e1^-1 (right multiplication cancels)
        size = len(group)
        diff = [
            [
                group.index[compose(group.elements[e2], invert(group.elements[e1]))]
                for e2 in range(size)
            ]
            for e1 in range(size)
        ]
        block_ids: Dict[Tuple[int, int, int], int] = {}
        blk = [0] * degree
        elm = [0] * degree
        for a in range(g1.degree):
            row = diff[elems1[a]]
            for b in range(v2):
                key = (blocks1[a], blocks2[b], row[elems2[b]])
                if key not in block_ids:
                    block_ids[key] = len(block_ids)
                v = a * v2 + b
                blk[v] = block_ids[key]
                elm[v] = elems1[a]
        return blk, elm

    a_block, a_elem = diagonal_coords(
        g1.factor_a.group, g1.a_block, g1.a_elem, g2.a_block, g2.a_elem
    )
    b_block, b_elem = diagonal_coords(
        g1.factor_b.group, g1.b_block, g1.b_elem, g2.b_block, g2.b_elem
    )
    return AmalgamActionGraph(
        g1.pres, graph, g1.factor_a, g1.factor_b, a_block, a_elem, b_block, b_elem
    )


# -- gluing search ---------------------------------------------------------------


def gluing_candidates(fa: Factor, fb: Factor, scale: int) -> Iterator[GluingSpec]:
    """Deterministic family at one size scale: strided matchings with
    constant rotations, then single-orbit rotation bumps of the identity."""
    base = canonical_gluing(fa, fb)
    k, l = base.k * scale, base.l * scale
    total = len(base.matching) * scale
    n_rot = len(fa.orbits[0])
    strides = [s for s in range(1, total + 1) if gcd(s, total) == 1][:4]
    # distinct matchings first: products of same-matching gluings stay folded
    for rot in range(n_rot):
        for stride in strides:
            for shift in range(min(total, 4)):
                matching = tuple((stride * j + shift) % total for j in range(total))
                yield GluingSpec(k, l, matching, (rot,) * total)
    identity = tuple(range(total))
    for pos in range(total):
        for rot in range(1, n_rot):
            rotations = tuple(rot if j == pos else 0 for j in range(total))
            yield GluingSpec(k, l, identity, rotations)


# -- the separation engine --------------------------------------------------------


@dataclass
class SeparationResult:
    quotient: FiniteQuotient
    log: List[str] = field(default_factory=list)

    @property
    def graph(self) -> ActionGraph:
        return self.quotient.graph


def smallest_admissible_prime(pres: AmalgamPresentation) -> int:
    return next_prime(max(len(reduce(pres.a)), len(reduce(pres.b))))


def _conjugate_into_subgroup(word: Word, gen: Word) -> Optional[int]:
    core_w, _ = cyclic_reduce(word)
    core_g, _ = cyclic_reduce(gen)
    if core_w.is_empty() or len(core_w) % len(core_g):
        return None
    k = len(core_w) // len(core_g)
    for exp in (k, -k):
        if conjugate_in_free(word, reduce(gen**exp)) is not None:
            return exp
    return None


def _bump_subgroup_order(
    quot: FiniteQuotient, basis: Basis, gen: Word, avoid: int
) -> FiniteQuotient:
    """Ensure the subgroup generator has nontrivial image, via a prime not
    dividing the separation witness where the two orders differ."""
    q = 2
    while avoid % q == 0:
        q = next_prime(q)
    extra = exact_order_quotient(gen, q)
    return FiniteQuotient(
        graph_disjoint_union([quot.graph, extra.graph]), basis, {}
    )


def _factor_pair_quotients(
    pres: AmalgamPresentation, side: str, quot: FiniteQuotient, budget: Budget
) -> Tuple[FiniteQuotient, FiniteQuotient]:
    """Complete a one-factor quotient into a gluable pair by realizing the
    other side's subgroup generator with the exact same order."""
    gen_here = pres.side_generator(side)
    gen_there = pres.side_generator("B" if side == "A" else "A")
    n = element_order(quot.graph, gen_here)
    other = exact_order_quotient(gen_there, n, budget)
    if side == "A":
        return quot, other
    return other, quot


def _separate_in_factor(
    basis: Basis, w1: Word, w2: Word, budget: Budget
) -> FiniteQuotient:
    """Quotient of one free factor giving w1 and w2 different image orders."""
    if commensurable(w1, w2):
        root1, s = primitive_root(w1)
        root2, t = primitive_root(w2)
        if conjugate_in_free(root1, root2) is None:
            t = -t
        q = _distinct_prime(s, t)
        e = max(_val(s, q), _val(t, q)) + 1
        return exact_order_quotient(root1, q**e, budget)
    p = next_prime(max(primitive_root(w)[1] for w in (w1, w2)))
    return equalize_orders([w1], w2, p, 1, budget).quotient


def _val(n: int, q: int) -> int:
    n = abs(n)
    v = 0
    while n and n % q == 0:
        n //= q
        v += 1
    return v


def separate_orders(
    u: AmalgamWord,
    v: AmalgamWord,
    pres: AmalgamPresentation,
    budget=None,
) -> SeparationResult:
    """Finite quotient of the amalgam where u and v get different orders.

    Inputs must not be conjugate (nor u conjugate to v inverse).  Routing:
    trivial v; both words in one factor; words in different factors; the
    general alternating case via matched factor quotients, a gluing with
    near-vertex-free representatives, and coset-twist splicing.
    """
    budget = as_budget(budget)
    log: List[str] = []
    for target in (v, v.inverse()):
        res = conjugate_in_amalgam(u, target, pres, budget)
        if res.status == "unknown":
            raise UndecidedConjugacy("conjugacy of the inputs is undecided")
        if res.status == "yes":
            raise PreconditionError(
                "inputs are conjugate up to inversion", code="CONJUGATE_INPUTS"
            )
    cu, _ = cyclically_reduce_amalgam(u, pres)
    cv, _ = cyclically_reduce_amalgam(v, pres)
    if cu.is_empty():
        cu, cv = cv, cu
        u, v = v, u
        log.append("swapped inputs: separation is symmetric")

    if cv.is_empty():
        return _case_trivial(u, cu, v, pres, budget, log)

    ku, kv = _classify_core(cu, pres), _classify_core(cv, pres)
    if ku[0] == "alternating" or kv[0] == "alternating":
        if ku[0] != "alternating":
            cu, cv = cv, cu
            u, v = v, u
            ku, kv = kv, ku
            log.append("swapped inputs: alternating word drives the engine")
        return _case_general(u, cu, v, cv, kv[0] == "alternating", pres, budget, log)

    return _case_factor_elements(u, ku, v, kv, pres, budget, log)


def _finish(
    aag: AmalgamActionGraph,
    u: AmalgamWord,
    v: AmalgamWord,
    pres: AmalgamPresentation,
    log: List[str],
) -> SeparationResult:
    wu = flatten_to_free(pres, u.syllables)
    wv = flatten_to_free(pres, v.syllables)
    ou, ov = element_order(aag.graph, wu), element_order(aag.graph, wv)
    if ou == ov:
        raise BudgetExceeded("engine ended with equal orders", orders=(ou, ov))
    quotient = FiniteQuotient(aag.graph, pres, {})
    quotient.witness_orders[amalgam_word_to_text(u)] = ou
    quotient.witness_orders[amalgam_word_to_text(v)] = ov
    log.append(f"orders: {ou} vs {ov} on {aag.degree} vertices")
    return SeparationResult(quotient, log)


def _case_trivial(u, cu, v, pres, budget, log) -> SeparationResult:
    log.append("case: trivial second word")
    kind = _classify_core(cu, pres)
    if kind[0] != "alternating":
        if kind[0] == "power":
            side, word = "A", reduce(pres.a ** kind[1])
        else:
            _, side, word = kind
        basis = pres.side_basis(side)
        root, exp = primitive_root(word)
        order = 2 + _val(exp, 2)
        quot = exact_order_quotient(root, 2**order, budget)
        if element_order(quot.graph, pres.side_generator(side)) <= 1:
            quot = _bump_subgroup_order(quot, basis, pres.side_generator(side), 1)
        pair = factor_pair(pres, *_factor_pair_quotients(pres, side, quot, budget))
        aag = glue_quotient(pres, *pair, canonical_gluing(*pair), budget)
        return _finish(aag, u, v, pres, log)

    p = smallest_admissible_prime(pres)
    start = _rotate_to_a(cu)
    qa, qb = matched_pair(start, AmalgamWord(()), pres, p, budget)
    word = flatten_to_free(pres, start.syllables)
    for label, aag in _base_candidates(pres, qa, qb, budget):
        if element_order(aag.graph, word) > 1:
            log.append(f"nontrivial image at the base ({label})")
            return _finish(aag, u, v, pres, log)
    raise BudgetExceeded("no gluing made the word act nontrivially")


def _rotate_to_a(core: AmalgamWord) -> AmalgamWord:
    if core.syllables[0][0] == "A":
        return core
    return AmalgamWord(core.syllables[1:] + core.syllables[:1])


def _case_factor_elements(u, ku, v, kv, pres, budget, log) -> SeparationResult:
    """``ku``, ``kv``: the cores' ``_classify_core`` kinds, power or single."""

    # subgroup powers live on both sides; single elements conjugate into the
    # subgroup are rewritten as powers first
    def as_power(kind):
        if kind[0] == "single":
            k = _conjugate_into_subgroup(kind[2], pres.side_generator(kind[1]))
            if k is not None:
                return ("power", k)
        return kind

    def as_side(side, kind):
        if kind[0] == "power":
            return reduce(pres.side_generator(side) ** kind[1])
        return kind[2] if kind[1] == side else None

    ku, kv = as_power(ku), as_power(kv)
    for side in ("A", "B"):
        w1 = as_side(side, ku)
        w2 = as_side(side, kv)
        if w1 is not None and w2 is not None:
            log.append(f"case: both words in factor {side}")
            basis = pres.side_basis(side)
            quot = _separate_in_factor(basis, w1, w2, budget)
            o1, o2 = element_order(quot.graph, w1), element_order(quot.graph, w2)
            if element_order(quot.graph, pres.side_generator(side)) <= 1:
                quot = _bump_subgroup_order(
                    quot, basis, pres.side_generator(side), _distinct_prime(o1, o2)
                )
            pair = factor_pair(pres, *_factor_pair_quotients(pres, side, quot, budget))
            aag = glue_quotient(pres, *pair, canonical_gluing(*pair), budget)
            return _finish(aag, u, v, pres, log)

    log.append("case: words in different factors")
    wa, wb = (ku[2], kv[2]) if ku[1] == "A" else (kv[2], ku[2])
    basis = union_basis(pres)
    fa = flatten_to_free(pres, [("A", wa)])
    fb = flatten_to_free(pres, [("B", wb)])
    aw = flatten_to_free(pres, [("A", pres.a)])
    bw = flatten_to_free(pres, [("B", pres.b)])
    p = next_prime(max(primitive_root(x)[1] for x in (fa, fb, aw, bw)))
    report = equalize_orders([fa, aw, bw], fb, p, 1, budget)
    big = report.quotient.graph
    rank_a = pres.basis_a.rank
    quot_a = FiniteQuotient(
        ActionGraph(pres.basis_a, big.degree, big.perms[:rank_a]), pres.basis_a, {}
    )
    quot_b = FiniteQuotient(
        ActionGraph(pres.basis_b, big.degree, big.perms[rank_a:]), pres.basis_b, {}
    )
    pair = factor_pair(pres, quot_a, quot_b)
    aag = glue_quotient(pres, *pair, canonical_gluing(*pair), budget)
    return _finish(aag, u, v, pres, log)


def _distinct_prime(o1: int, o2: int) -> int:
    """The least prime at which the valuations of o1 and o2 differ."""
    q = 2
    while _val(o1, q) == _val(o2, q):
        q = next_prime(q)
    return q


def _base_candidates(
    pres: AmalgamPresentation,
    qa: FiniteQuotient,
    qb: FiniteQuotient,
    budget: Budget,
) -> Iterator[Tuple[str, AmalgamActionGraph]]:
    """Single gluings at growing scales, then synchronized products of the
    small ones (products multiply the block counts, which is usually what
    the near-vertex-freeness search is missing)."""
    fa, fb = factor_pair(pres, qa, qb)
    small: List[AmalgamActionGraph] = []
    seen_matchings = set()
    for scale in (1, 2, 3):
        for spec in gluing_candidates(fa, fb, scale):
            budget.charge(1, "gluing candidate")
            try:
                aag = glue_quotient(pres, fa, fb, spec, budget)
            except PreconditionError:
                continue
            if scale == 1 and len(small) < 8 and (spec.matching, spec.rotations[0]) not in seen_matchings:
                seen_matchings.add((spec.matching, spec.rotations[0]))
                small.append(aag)
            yield f"gluing scale {scale}", aag
    for i in range(len(small)):
        for j in range(i, len(small)):
            degree = small[i].degree * small[j].degree
            if degree > 250_000:
                continue
            budget.charge(degree, "product candidate")
            yield f"product of gluings {i},{j}", aag_product(small[i], small[j])


def _case_general(u, cu, v, cv, check_v, pres, budget, log) -> SeparationResult:
    log.append("case: general alternating")
    cu = _rotate_to_a(cu)
    p = smallest_admissible_prime(pres)
    qa, qb = matched_pair(cu, cv, pres, p, budget)
    wu = flatten_to_free(pres, cu.syllables)
    wv = flatten_to_free(pres, cv.syllables)

    base = None
    for label, aag in _base_candidates(pres, qa, qb, budget):
        ou, ov = element_order(aag.graph, wu), element_order(aag.graph, wv)
        if ou != ov and ou > 1:
            log.append(f"separated at the base ({label})")
            return _finish(aag, u, v, pres, log)
        if ou <= 1:
            continue
        if not word_reps_near_free(aag, cu):
            continue
        if check_v and not word_reps_near_free(aag, cv):
            continue
        base = aag
        log.append(f"base with near-vertex-free representatives ({label}), orders {ou} = {ov}")
        break
    if base is None:
        raise BudgetExceeded("no gluing with near-vertex-free representatives")

    aag = base
    anchor, n0 = longest_orbit(image_perm(aag.graph, wu))
    cap = 4 * (u.total_letters() + v.total_letters())
    for round_no in range(1, cap + 1):
        if round_no == 1:
            copies = n0
        elif round_no == 2:
            copies = n0 * n0
        else:
            copies = longest_orbit(image_perm(aag.graph, wu))[1]
        budget.charge(aag.degree * copies, "splice round")
        aag = amalgam_splice(aag, cu, anchor, round_no - 1, copies)
        ou, ov = element_order(aag.graph, wu), element_order(aag.graph, wv)
        log.append(f"round {round_no}: x{copies} copies, orders {ou} vs {ov}")
        if ou != ov:
            return _finish(aag, u, v, pres, log)
    recheck = conjugate_in_amalgam(u, v, pres, Budget(10 * budget.limit))
    raise BudgetExceeded(
        "splice rounds exhausted without separation; "
        f"conjugacy recheck says {recheck.status}"
    )


# -- serialization ----------------------------------------------------------------


def aag_to_json(g: AmalgamActionGraph) -> dict:
    return {
        "graph": graph_to_json(g.graph),
        "presentation": presentation_to_json(g.pres),
        "subgroup_order": g.n,
        "quot_a": quotient_to_json(g.factor_a.quot),
        "quot_b": quotient_to_json(g.factor_b.quot),
        "a_block": list(g.a_block),
        "a_elem": list(g.a_elem),
        "b_block": list(g.b_block),
        "b_elem": list(g.b_elem),
    }


def aag_from_json(data: dict) -> AmalgamActionGraph:
    """Load and re-validate a graph; the factor data is derived again from
    the two quotients, and the stored subgroup order must agree with it."""
    pres = presentation_from_json(data["presentation"])
    fa, fb = factor_pair(
        pres, quotient_from_json(data["quot_a"]), quotient_from_json(data["quot_b"])
    )
    aag = AmalgamActionGraph(
        pres,
        graph_from_json(data["graph"]),
        fa,
        fb,
        data["a_block"],
        data["a_elem"],
        data["b_block"],
        data["b_elem"],
    )
    validate_amalgam_graph(aag)
    if data["subgroup_order"] != aag.n:
        raise ValidationError(
            f"stored subgroup order {data['subgroup_order']} is not the quotients' {aag.n}",
            code="SUBGROUP_ORDER",
        )
    return aag
