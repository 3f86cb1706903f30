import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ordsep.action_graph import (
    ActionGraph,
    distance,
    element_order,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    has_l_near,
    identity_perm,
    image_perm,
    is_valid,
    perm_order,
    quotient_from_json,
    u_cycles,
    validate,
)
from ordsep.errors import PreconditionError, ValidationError
from ordsep.words import Basis, Word, parse_word

XY = Basis(("x", "y"))


def w(text):
    return parse_word(text, XY)


def shift(n, k=1):
    return tuple((v + k) % n for v in range(n))


def cyclic_graph(n, ex=1, ey=0):
    return ActionGraph(XY, n, (shift(n, ex), shift(n, ey)))


Z3 = cyclic_graph(3)
Z4 = cyclic_graph(4)
Z5 = cyclic_graph(5)
Z6 = cyclic_graph(6)

# disjoint union of a 2-shift and a 3-shift on x; y trivial
Z2_X_Z3 = ActionGraph(XY, 5, ((1, 0, 3, 4, 2), identity_perm(5)))

# rank-2 abelian grid (Z/2)^2: x shifts rows, y shifts columns
GRID = ActionGraph(XY, 4, ((1, 0, 3, 2), (2, 3, 0, 1)))


def test_validate_examples():
    validate(Z3)
    bad = ActionGraph(XY, 3, ((0, 0, 1), identity_perm(3)))
    with pytest.raises(ValidationError) as exc:
        validate(bad)
    assert exc.value.code == "DUPLICATE_IMAGE"
    empty = ActionGraph(XY, 0, ((), ()))
    with pytest.raises(ValidationError) as exc:
        validate(empty)
    assert exc.value.code == "EMPTY_GRAPH"


def test_image_perm_examples():
    assert image_perm(Z3, w("x")) == (1, 2, 0)
    assert image_perm(Z3, w("x x^-1")) == identity_perm(3)
    p = image_perm(Z2_X_Z3, w("x"))
    assert p == (1, 0, 3, 4, 2)
    orbit_sizes = sorted(len(o) for o in _orbits(p))
    assert orbit_sizes == [2, 3]


def _orbits(p):
    seen = set()
    out = []
    for v in range(len(p)):
        if v in seen:
            continue
        orbit = [v]
        seen.add(v)
        u = p[v]
        while u != v:
            orbit.append(u)
            seen.add(u)
            u = p[u]
        out.append(orbit)
    return out


def test_u_cycles_examples():
    cycles = u_cycles(Z3, w("x"))
    assert len(cycles) == 1 and cycles[0].length == 3

    cycles = u_cycles(Z4, w("x x"))
    assert [c.length for c in cycles] == [2, 2]

    cycles = u_cycles(GRID, w("x y x^-1 y^-1"))
    assert [c.length for c in cycles] == [1, 1, 1, 1]


def test_u_cycles_rejects_empty():
    with pytest.raises(PreconditionError) as exc:
        u_cycles(Z3, w("1"))
    assert exc.value.code == "EMPTY_WORD"


def test_element_order_examples():
    assert element_order(Z2_X_Z3, w("x")) == 6
    assert element_order(Z3, w("1")) == 1
    assert element_order(Z4, w("x x")) == 2


def test_distance_examples():
    assert distance(Z5, 0, 0) == 0
    assert distance(Z5, 0, 1) == 1
    assert distance(Z5, 0, 2) == 2


def test_distance_unreachable():
    assert distance(Z2_X_Z3, 0, 2) is None


def test_has_l_near_examples():
    simple = u_cycles(Z6, w("x"))[0]
    assert has_l_near(Z6, simple, 0) is False
    assert has_l_near(Z6, simple, 1) is False

    # y acts trivially, so the x y representative revisits vertices
    revisiting = u_cycles(cyclic_graph(3, 1, 0), w("x y"))[0]
    assert has_l_near(cyclic_graph(3, 1, 0), revisiting, 0) is True


def test_has_l_near_monotone_on_random_cycles():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(2, 12)
        perms = tuple(tuple(rng.sample(range(n), n)) for _ in range(2))
        g = ActionGraph(XY, n, perms)
        word = _random_reduced_word(rng, max_len=5)
        for c in u_cycles(g, word):
            # no l-near vertices implies no k-near vertices for k < l
            for l in range(3, 0, -1):
                if not has_l_near(g, c, l):
                    for k in range(l):
                        assert not has_l_near(g, c, k)


def _random_reduced_word(rng, max_len):
    letters = []
    while len(letters) < rng.randrange(1, max_len + 1):
        cand = (rng.randrange(2), rng.choice((1, -1)))
        if letters and letters[-1][0] == cand[0] and letters[-1][1] == -cand[1]:
            continue
        letters.append(cand)
    return Word(XY, tuple(letters))


def test_lcm_law_and_orbit_partition_random():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 16)
        perms = tuple(tuple(rng.sample(range(n), n)) for _ in range(2))
        g = ActionGraph(XY, n, perms)
        word = _random_reduced_word(rng, max_len=6)
        cycles = u_cycles(g, word)
        lcm = 1
        for c in cycles:
            lcm = lcm * c.length // gcd(lcm, c.length)
        assert element_order(g, word) == lcm
        assert sum(c.length for c in cycles) == n


perm_lists = st.integers(2, 8).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
)


@given(perm_lists, st.data())
@settings(max_examples=60, deadline=None)
def test_image_perm_is_homomorphism(perms, data):
    n = len(perms[0])
    g = ActionGraph(XY, n, (tuple(perms[0]), tuple(perms[1])))
    mk = st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=6)
    w1 = Word(XY, tuple(data.draw(mk)))
    w2 = Word(XY, tuple(data.draw(mk)))
    p1 = image_perm(g, w1)
    p2 = image_perm(g, w2)
    composed = tuple(p2[p1[v]] for v in range(n))
    assert image_perm(g, w1 * w2) == composed


def test_validate_fuzz_rejects_corruptions():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(1, 10)
        perms = [list(rng.sample(range(n), n)) for _ in range(2)]
        gi = rng.randrange(2)
        v = rng.randrange(n)
        old = perms[gi][v]
        choices = [x for x in range(n + 2) if x != old]
        perms[gi][v] = rng.choice(choices)
        g = ActionGraph(XY, n, tuple(tuple(p) for p in perms))
        assert not is_valid(g)


def test_graph_json_round_trip():
    data = graph_to_json(Z2_X_Z3)
    assert data == {
        "degree": 5,
        "generators": ["x", "y"],
        "perms": {"x": [1, 0, 3, 4, 2], "y": [0, 1, 2, 3, 4]},
    }
    g = graph_from_json(data)
    assert g == Z2_X_Z3


def test_quotient_from_json_rejects_false_witness_order():
    data = {
        "graph": graph_to_json(cyclic_graph(2)),
        "source": {"basis": ["x", "y"]},
        "witness_orders": {"x": 7},
    }
    with pytest.raises(ValidationError) as exc:
        quotient_from_json(data)
    assert exc.value.code == "WITNESS_ORDER"
    data["witness_orders"] = {"x": 2}
    assert quotient_from_json(data).witness_orders == {"x": 2}


def test_dot_export_mentions_all_edges():
    dot = graph_to_dot(Z3)
    assert dot.count("->") == 6
    assert 'label="x"' in dot and 'label="y"' in dot


def test_perm_order_matches_power_iteration():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 10)
        p = tuple(rng.sample(range(n), n))
        k = 1
        q = p
        while q != tuple(range(n)):
            q = tuple(p[q[v]] for v in range(n))
            k += 1
        assert perm_order(p) == k
