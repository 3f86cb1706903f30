"""Finite action graphs of a free group.

A graph is one permutation of the vertex set per basis generator; the
positively oriented edge labeled ``g`` at vertex ``v`` ends at ``perms[g][v]``.
Inverse edges are implicit.  Orders, cycles, the near-vertex predicate and
the breadth-first group closure that the factor groups, the unitriangular
groups and the small p-group actions share all live here.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Dict, Hashable, Iterator, List, Sequence, Tuple

from .errors import PreconditionError, ValidationError
from .words import Basis, Word, parse_word, reduce, word_to_text

Perm = Tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    return tuple(q[p[v]] for v in range(len(p)))


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for v, w in enumerate(p):
        out[w] = v
    return tuple(out)


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def perm_order(p: Perm) -> int:
    """lcm of orbit sizes, computed by direct orbit traversal."""
    seen = [False] * len(p)
    order = 1
    for v in range(len(p)):
        if seen[v]:
            continue
        size = 0
        w = v
        while not seen[w]:
            seen[w] = True
            size += 1
            w = p[w]
        order = order * size // gcd(order, size)
    return order


def perm_orbits(p: Perm) -> List[List[int]]:
    """Orbits of <p>, each listed from its minimal vertex, sorted by start."""
    seen = [False] * len(p)
    orbits = []
    for v in range(len(p)):
        if seen[v]:
            continue
        orbit = []
        w = v
        while not seen[w]:
            seen[w] = True
            orbit.append(w)
            w = p[w]
        orbits.append(orbit)
    return orbits


def longest_orbit(p: Perm) -> Tuple[int, int]:
    """(start, length) of the longest orbit of <p>; among equally long
    orbits, the one through the smallest vertex."""
    orbit = max(perm_orbits(p), key=len)
    return orbit[0], len(orbit)


def bfs_closure(
    identity: Hashable, gens: Sequence, mult: Callable
) -> Iterator[Hashable]:
    """Elements of the group generated by ``gens``, in breadth-first order:
    the identity first, then for each dequeued element ``cur`` every new
    ``mult(cur, g)`` with ``g`` taken in the order of ``gens``.

    Callers pass the generators followed by their inverses, and stop
    consuming at their own cap.
    """
    # a dict, not a set: at the 20000 elements a regular representation
    # may reach, it takes about a quarter of a set's memory
    seen = {identity: None}
    queue = deque([identity])
    yield identity
    while queue:
        cur = queue.popleft()
        for g in gens:
            nxt = mult(cur, g)
            if nxt not in seen:
                seen[nxt] = None
                queue.append(nxt)
                yield nxt


@dataclass(frozen=True)
class ActionGraph:
    basis: Basis
    degree: int
    perms: Tuple[Perm, ...]  # one image array per generator, by basis index

    def __post_init__(self):
        object.__setattr__(self, "perms", tuple(tuple(p) for p in self.perms))


@dataclass(frozen=True)
class CyclePath:
    """One cycle of a word's action with its traced representative.

    ``vertices`` lists the begin point of each edge of the representative for
    the word's given reduced notation; the representative has
    ``length * len(word)`` edges and closes back at ``start``.
    """

    word: Word
    start: int
    length: int
    vertices: Tuple[int, ...]

    @property
    def edge_count(self) -> int:
        return len(self.vertices)

    def edges(self) -> List[Tuple[int, int, int, int]]:
        """Edge list as (v_from, gen_index, sign, v_to)."""
        out = []
        k = len(self.word.letters)
        for pos, v in enumerate(self.vertices):
            gen, sign = self.word.letters[pos % k]
            v_to = self.vertices[(pos + 1) % len(self.vertices)]
            out.append((v, gen, sign, v_to))
        return out


def validate(g: ActionGraph) -> None:
    """Raise ValidationError unless every image array is a bijection."""
    if g.degree < 1:
        raise ValidationError("graph has no vertices", code="EMPTY_GRAPH")
    for gi, p in enumerate(g.perms):
        name = g.basis.names[gi]
        if len(p) != g.degree:
            raise ValidationError(
                f"image array for {name} has length {len(p)}, expected {g.degree}",
                code="PERM_LENGTH",
                generator=name,
            )
        seen = [False] * g.degree
        for v, w in enumerate(p):
            if not 0 <= w < g.degree:
                raise ValidationError(
                    f"image {w} of vertex {v} under {name} out of range",
                    code="IMAGE_OUT_OF_RANGE",
                    generator=name,
                    vertex=v,
                )
            if seen[w]:
                raise ValidationError(
                    f"duplicate image {w} under {name} at vertex {v}",
                    code="DUPLICATE_IMAGE",
                    generator=name,
                    vertex=v,
                )
            seen[w] = True


def is_valid(g: ActionGraph) -> bool:
    try:
        validate(g)
        return True
    except ValidationError:
        return False


def image_perm(g: ActionGraph, w: Word) -> Perm:
    """Permutation image of w; letters apply left to right."""
    inverses: Dict[int, Perm] = {}
    cur = list(range(g.degree))
    for gen, sign in w.letters:
        if sign > 0:
            p = g.perms[gen]
        else:
            p = inverses.get(gen)
            if p is None:
                p = invert(g.perms[gen])
                inverses[gen] = p
        cur = [p[v] for v in cur]
    return tuple(cur)


def element_order(g: ActionGraph, u: Word) -> int:
    return perm_order(image_perm(g, u))


def u_cycles(g: ActionGraph, u: Word) -> List[CyclePath]:
    """One CyclePath per orbit of <image of u>, traced letter by letter."""
    if reduce(u).is_empty():
        raise PreconditionError("cycles of the empty word", code="EMPTY_WORD")
    if not u.is_reduced():
        raise PreconditionError("word must be reduced", code="WORD_NOT_REDUCED")
    p = image_perm(g, u)
    inverses = {gen: invert(g.perms[gen]) for gen, sign in set(u.letters) if sign < 0}
    cycles = []
    for orbit in perm_orbits(p):
        start = orbit[0]
        vertices = []
        v = start
        for _ in range(len(orbit)):
            for gen, sign in u.letters:
                vertices.append(v)
                v = g.perms[gen][v] if sign > 0 else inverses[gen][v]
        assert v == start, "representative failed to close"
        cycles.append(CyclePath(u, start, len(orbit), tuple(vertices)))
    return cycles


def _neighbor_table(g: ActionGraph) -> List[List[int]]:
    table = [[] for _ in range(g.degree)]
    for p in g.perms:
        for v, w in enumerate(p):
            table[v].append(w)
            table[w].append(v)
    return table


def has_l_near(g: ActionGraph, c: CyclePath, l: int) -> bool:
    """True when some vertex pair of the representative sits too close.

    Positions i < j (0-based over the n = edge-count begin points) violate
    the bound when distance < min(j - i, n - (j - i), l + 1).
    """
    verts = c.vertices
    n = len(verts)
    if l == 0:
        return len(set(verts)) != n
    positions: Dict[int, List[int]] = {}
    for pos, v in enumerate(verts):
        positions.setdefault(v, []).append(pos)
    neighbors = _neighbor_table(g)
    for i in range(n):
        # breadth-first to depth l: farther pairs can never violate
        dist = {verts[i]: 0}
        frontier = [verts[i]]
        for depth in range(1, l + 1):
            nxt = []
            for v in frontier:
                for w in neighbors[v]:
                    if w not in dist:
                        dist[w] = depth
                        nxt.append(w)
            frontier = nxt
        for v, d in dist.items():
            for j in positions.get(v, ()):
                if j <= i:
                    continue
                sep = j - i
                if d < min(sep, n - sep, l + 1):
                    return True
    return False


def graph_disjoint_union(graphs) -> ActionGraph:
    """Block-diagonal union: one graph acting on the concatenated vertex sets."""
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    basis = graphs[0].basis
    if any(g.basis != basis for g in graphs):
        raise ValueError("disjoint union needs a common basis")
    degree = sum(g.degree for g in graphs)
    perms = []
    for gi in range(basis.rank):
        merged = []
        offset = 0
        for g in graphs:
            merged.extend(v + offset for v in g.perms[gi])
            offset += g.degree
        perms.append(tuple(merged))
    return ActionGraph(basis, degree, tuple(perms))


# -- finite quotient certificates -------------------------------------------


@dataclass
class FiniteQuotient:
    """A homomorphism certificate: graph, source description, witnessed orders."""

    graph: ActionGraph
    source: object  # Basis or an amalgam presentation
    witness_orders: Dict[str, int] = field(default_factory=dict)

    def check_witnesses(self) -> bool:
        for text, order in self.witness_orders.items():
            w = self._parse_witness(text)
            if element_order(self.graph, w) != order:
                return False
        return True

    def _parse_witness(self, text: str) -> Word:
        from .amalgam import AmalgamPresentation, flatten_to_free, parse_amalgam_word

        if isinstance(self.source, AmalgamPresentation):
            amalgam = parse_amalgam_word(text, self.source)
            return flatten_to_free(self.source, amalgam.syllables)
        return parse_word(text, self.graph.basis)


def record_orders(q: FiniteQuotient, ws) -> FiniteQuotient:
    for w in ws:
        q.witness_orders[word_to_text(w)] = element_order(q.graph, w)
    return q


# -- serialization ------------------------------------------------------------


def graph_to_json(g: ActionGraph) -> dict:
    return {
        "degree": g.degree,
        "generators": list(g.basis.names),
        "perms": {name: list(g.perms[i]) for i, name in enumerate(g.basis.names)},
    }


def graph_from_json(data: dict) -> ActionGraph:
    basis = Basis(tuple(data["generators"]))
    degree = int(data["degree"])
    perms = tuple(tuple(data["perms"][name]) for name in basis.names)
    return ActionGraph(basis, degree, perms)


def graph_to_dot(g: ActionGraph, factor_of=None, colors=("black", "blue")) -> str:
    """DOT text: one node per vertex, one directed edge per positive edge.

    ``factor_of`` optionally maps a generator name to "A" or "B"; labeled
    edges then carry a factor attribute and a color per factor.
    """
    lines = ["digraph action_graph {"]
    for v in range(g.degree):
        lines.append(f"  v{v};")
    for i, name in enumerate(g.basis.names):
        attrs = f'label="{name}"'
        if factor_of is not None:
            factor = factor_of(name)
            color = colors[0] if factor == "A" else colors[1]
            attrs += f', factor="{factor}", color="{color}"'
        for v, w in enumerate(g.perms[i]):
            lines.append(f"  v{v} -> v{w} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def quotient_to_json(q: FiniteQuotient) -> dict:
    from .amalgam import AmalgamPresentation, presentation_to_json

    if isinstance(q.source, Basis):
        source = {"basis": list(q.source.names)}
    elif isinstance(q.source, AmalgamPresentation):
        source = {"presentation": presentation_to_json(q.source)}
    else:
        source = {"description": str(q.source)}
    return {
        "graph": graph_to_json(q.graph),
        "source": source,
        "witness_orders": dict(sorted(q.witness_orders.items())),
    }


def quotient_from_json(data: dict) -> FiniteQuotient:
    """Load a quotient; the graph is validated and every claimed witness
    order is recomputed from it (ValidationError on a mismatch)."""
    from .amalgam import presentation_from_json

    graph = graph_from_json(data["graph"])
    validate(graph)
    src = data.get("source", {})
    if "basis" in src:
        source = Basis(tuple(src["basis"]))
    elif "presentation" in src:
        source = presentation_from_json(src["presentation"])
    else:
        source = src.get("description")
    quotient = FiniteQuotient(graph, source, dict(data.get("witness_orders", {})))
    if not quotient.check_witnesses():
        raise ValidationError(
            "a claimed witness order differs from the graph's", code="WITNESS_ORDER"
        )
    return quotient


def dumps(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
