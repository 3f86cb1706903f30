"""Acceptance gate: every criterion at its stated budget, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import random
import time
from math import gcd

import pytest

from ordsep.action_graph import (
    ActionGraph,
    element_order,
    is_valid,
    u_cycles,
    validate,
)
from ordsep.amalgam import (
    AmalgamPresentation,
    AmalgamWord,
    check_matched_pair,
    delta_sets,
    flatten_to_free,
    matched_pair,
    parse_amalgam_word,
)
from ordsep.amalgam_graph import (
    AmalgamActionGraph,
    PermGroup,
    canonical_gluing,
    factor_pair,
    glue_quotient,
    separate_orders,
    validate_amalgam_graph,
)
from ordsep.errors import PreconditionError, ValidationError
from ordsep.oracle import oracle_consistency, oracle_separate
from ordsep.surgery import (
    SpliceSpec,
    equalize_orders,
    exact_order_quotient,
    splice,
)
from ordsep.words import Basis, Word, parse_word

XY = Basis(("x", "y"))
A = Basis(("x", "y"))
B = Basis(("s", "t"))
PRES = AmalgamPresentation(A, B, parse_word("x", A), parse_word("s", B))


def w(text, basis=XY):
    return parse_word(text, basis)


def aw(text):
    return parse_amalgam_word(text, PRES)


def _random_graph(rng, max_degree):
    n = rng.randrange(1, max_degree + 1)
    perms = tuple(tuple(rng.sample(range(n), n)) for _ in range(2))
    return ActionGraph(XY, n, perms)


def _random_reduced_word(rng, max_len):
    letters = []
    target = rng.randrange(1, max_len + 1)
    while len(letters) < target:
        cand = (rng.randrange(2), rng.choice((1, -1)))
        if letters and letters[-1][0] == cand[0] and letters[-1][1] == -cand[1]:
            continue
        letters.append(cand)
    return Word(XY, tuple(letters))


def _report(number, name, elapsed, limit):
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (limit {limit}s)")


def test_criterion_1_lcm_law():
    start = time.time()
    rng = random.Random(101)
    for _ in range(500):
        g = _random_graph(rng, 24)
        word = _random_reduced_word(rng, 8)
        cycles = u_cycles(g, word)
        lcm = 1
        for c in cycles:
            lcm = lcm * c.length // gcd(lcm, c.length)
        assert element_order(g, word) == lcm
        assert sum(c.length for c in cycles) == g.degree
    elapsed = time.time() - start
    assert elapsed < 5
    _report(1, "cycle-length lcm law", elapsed, 5)


def test_criterion_2_splice_laws():
    start = time.time()
    rng = random.Random(202)
    done = 0
    while done < 200:
        g = _random_graph(rng, 10)
        if g.degree < 2:
            continue
        word = _random_reduced_word(rng, 4)
        p = rng.choice((1, 2, 3, 5))
        cycles = u_cycles(g, word)
        target = rng.choice(cycles)
        edge_index = rng.randrange(target.edge_count)
        cut_key = _edge_key(g, word, target.start, edge_index)
        if _crossings(g, word, target.start, cut_key) != 1:
            continue
        s = splice(g, SpliceSpec(word, target.start, edge_index, p))
        validate(s)
        assert s.degree == g.degree * p
        new_by_start = {c.start: c for c in u_cycles(s, word)}
        assert new_by_start[target.start].length == target.length * p
        for c in cycles:
            if c.start == target.start or cut_key in _rep_keys(g, word, c.start):
                continue
            for copy in range(p):
                assert new_by_start[c.start + copy * g.degree].length == c.length
        done += 1
    elapsed = time.time() - start
    assert elapsed < 5
    _report(2, "splice degree and length laws", elapsed, 5)


def _edge_key(g, word, start, index):
    from ordsep.surgery import _cut_edge_key

    return _cut_edge_key(g, word, start, index)


def _rep_keys(g, word, start):
    cycle = next(c for c in u_cycles(g, word) if c.start == start)
    return {(gen, v_from) if sign > 0 else (gen, v_to) for v_from, gen, sign, v_to in cycle.edges()}


def _crossings(g, word, start, cut_key):
    total = 0
    for c in u_cycles(g, word):
        if c.start == start:
            for v_from, gen, sign, v_to in c.edges():
                key = (gen, v_from) if sign > 0 else (gen, v_to)
                if key == cut_key:
                    total += 1
    return total


EQUALIZE_CATALOG = [
    ([w("x")], w("y"), 2),
    ([w("x"), w("y")], w("x y"), 2),
    ([w("x"), w("y"), w("x y^-1")], w("x y y"), 3),
]


def test_criterion_3_order_equalization():
    start = time.time()
    for us, v, p in EQUALIZE_CATALOG:
        t0 = time.time()
        report = equalize_orders(us, v, p, 4)
        g = report.quotient.graph
        orders = [element_order(g, u) for u in us]
        order_v = element_order(g, v)
        assert all(o == orders[0] for o in orders)
        assert orders[0] > order_v > 1
        assert orders[0] > 4
        assert time.time() - t0 < 60
    elapsed = time.time() - start
    _report(3, "order equalization on the fixture catalog", elapsed, 60)


def test_criterion_4_exact_orders():
    start = time.time()
    for text in ("x", "x y", "x x y"):
        for n in range(2, 13):
            q = exact_order_quotient(w(text), n)
            assert element_order(q.graph, w(text)) == n
    elapsed = time.time() - start
    assert elapsed < 10
    _report(4, "exact image orders 2..12", elapsed, 10)


MATCHED_FIXTURES = [
    (aw("A:{y} B:{t}"), aw("A:{y y}"), 3),
    (aw("A:{y} B:{t}"), aw("A:{y} B:{t^-1}"), 2),
]


def test_criterion_5_matched_pairs():
    start = time.time()
    for u, v, p in MATCHED_FIXTURES:
        phi, psi = matched_pair(u, v, PRES, p)
        da, db = delta_sets(u, v, PRES)
        assert check_matched_pair(phi, psi, PRES, da, db)
    elapsed = time.time() - start
    assert elapsed < 60
    _report(5, "matched factor quotients", elapsed, 60)


SEPARATION_CATALOG = [
    ("trivial v", aw("A:{y} B:{t}"), aw("1")),
    ("same factor", aw("A:{y}"), aw("A:{y y}")),
    ("different factors", aw("A:{y}"), aw("B:{t}")),
    ("alternating vs inverse letter", aw("A:{y} B:{t}"), aw("A:{y} B:{t^-1}")),
    ("alternating vs square", aw("A:{y} B:{t}"), aw("A:{y y} B:{t}")),
    (
        "longer alternating",
        aw("A:{y} B:{t} A:{y y} B:{t}"),
        aw("A:{y} B:{t} A:{y y} B:{t^-1}"),
    ),
]

_separation_outputs = {}


def _separate_all():
    if not _separation_outputs:
        for name, u, v in SEPARATION_CATALOG:
            t0 = time.time()
            result = separate_orders(u, v, PRES)
            elapsed = time.time() - t0
            assert elapsed < 120
            _separation_outputs[name] = (u, v, result, elapsed)
    return _separation_outputs


def test_criterion_6_separation_end_to_end():
    start = time.time()
    outputs = _separate_all()
    assert len(outputs) >= 5
    for name, (u, v, result, _) in outputs.items():
        graph = result.quotient.graph
        wu = flatten_to_free(PRES, u.syllables)
        wv = flatten_to_free(PRES, v.syllables)
        assert element_order(graph, wu) != element_order(graph, wv), name
        validate(graph)
    elapsed = time.time() - start
    _report(6, "two-element separation across all cases", elapsed, 120)


@pytest.mark.parametrize("name,u,v", SEPARATION_CATALOG, ids=[c[0] for c in SEPARATION_CATALOG])
def test_separation_builds_each_factor_group_once(monkeypatch, name, u, v):
    # one separation glues one quotient pair: its two factor groups are
    # built once and shared by every gluing, product and splice
    built = []
    original = PermGroup.__init__

    def counting(self, *args, **kwargs):
        built.append(name)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting)
    separate_orders(u, v, PRES)
    assert len(built) <= 2


def test_criterion_7_oracle_agreement():
    start = time.time()
    outputs = _separate_all()
    for name, (u, v, result, _) in outputs.items():
        assert oracle_consistency(result.quotient, u, v) == "ok", name
        found = oracle_separate(u, v, PRES, 5)
        if found is None:
            # the oracle admits every hom with matching subgroup images, so
            # a miss at the cap means the engine's certificate is bigger
            assert result.quotient.graph.degree > 5, name
    elapsed = time.time() - start
    assert elapsed < 120
    _report(7, "oracle never contradicts the engine", elapsed, 120)


CONJUGATE_CATALOG = [
    ("syllable rotation", aw("A:{y} B:{t} A:{y y} B:{t}"),
     AmalgamWord(aw("A:{y} B:{t} A:{y y} B:{t}").syllables[2:]
                 + aw("A:{y} B:{t} A:{y y} B:{t}").syllables[:2])),
    ("two-syllable rotation", aw("A:{y} B:{t}"), aw("B:{t} A:{y}")),
    ("subgroup twist", aw("A:{y} B:{t}"), aw("A:{x^-1 y} B:{t s}")),
    ("factor conjugation", aw("A:{y}"), aw("A:{x y x^-1}")),
    ("inverse rotation", aw("A:{y} B:{t}"), aw("A:{y^-1} B:{t^-1}")),
]


def test_criterion_8_negative_controls():
    start = time.time()
    for name, u, v in CONJUGATE_CATALOG:
        assert oracle_separate(u, v, PRES, 5) is None, name
        with pytest.raises(PreconditionError) as exc:
            separate_orders(u, v, PRES)
        assert exc.value.code == "CONJUGATE_INPUTS", name
    elapsed = time.time() - start
    assert elapsed < 60
    _report(8, "conjugate pairs stay inseparable", elapsed, 60)


def test_criterion_9_validity_fuzzing():
    start = time.time()
    rng = random.Random(909)
    rejected = 0
    for _ in range(700):
        n = rng.randrange(1, 12)
        perms = [list(rng.sample(range(n), n)) for _ in range(2)]
        gi = rng.randrange(2)
        v = rng.randrange(n)
        old = perms[gi][v]
        perms[gi][v] = rng.choice([x for x in range(n + 2) if x != old])
        g = ActionGraph(XY, n, tuple(tuple(p) for p in perms))
        assert not is_valid(g)
        rejected += 1

    qa = exact_order_quotient(parse_word("x", A), 4)
    qb = exact_order_quotient(parse_word("s", B), 4)
    pair = factor_pair(PRES, qa, qb)
    base = glue_quotient(PRES, *pair, canonical_gluing(*pair))
    for _ in range(300):
        perms = [list(p) for p in base.graph.perms]
        gi = rng.randrange(len(perms))
        v = rng.randrange(base.degree)
        old = perms[gi][v]
        perms[gi][v] = rng.choice([x for x in range(base.degree) if x != old])
        bad = AmalgamActionGraph(
            PRES,
            ActionGraph(base.graph.basis, base.degree, tuple(tuple(p) for p in perms)),
            base.factor_a, base.factor_b,
            base.a_block, base.a_elem, base.b_block, base.b_elem,
        )
        with pytest.raises(ValidationError):
            validate_amalgam_graph(bad)
        rejected += 1
    assert rejected == 1000
    elapsed = time.time() - start
    assert elapsed < 5
    _report(9, "corrupted graphs are rejected", elapsed, 5)
