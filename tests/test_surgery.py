import random
from collections import Counter

import pytest
from hypothesis import assume, given, strategies as st

from ordsep.action_graph import (
    ActionGraph,
    element_order,
    has_l_near,
    identity_perm,
    u_cycles,
    validate,
)
from ordsep.amalgam_graph import _distinct_prime
from ordsep.budget import Budget
from ordsep.errors import BudgetExceeded, PreconditionError
from ordsep.surgery import (
    SpliceSpec,
    TruncatedUnitGroup,
    _graph_words_ok,
    abelian_power_graph,
    cyclic_power_graph,
    equalize_orders,
    exact_order_quotient,
    find_simple_quotient,
    is_prime,
    magnus_coefficients,
    next_prime,
    splice,
)
from ordsep.words import Basis, Word, parse_word

XY = Basis(("x", "y"))


def w(text):
    return parse_word(text, XY)


def test_splice_doubles_cycle():
    g = ActionGraph(XY, 3, ((1, 2, 0), identity_perm(3)))
    s = splice(g, SpliceSpec(w("x"), 0, 0, 2))
    validate(s)
    assert s.degree == 6
    assert element_order(s, w("x")) == 6
    # hand-composed image array: copy 0 cut edge now lands in copy 1
    assert s.perms[0] == (4, 2, 0, 1, 5, 3)


def test_splice_p1_is_identity_surgery():
    g = ActionGraph(XY, 3, ((1, 2, 0), identity_perm(3)))
    assert splice(g, SpliceSpec(w("x"), 0, 0, 1)) == g


def test_splice_negative_letter():
    g = ActionGraph(XY, 3, ((1, 2, 0), identity_perm(3)))
    s = splice(g, SpliceSpec(w("x^-1"), 0, 0, 2))
    validate(s)
    assert element_order(s, w("x")) == 6


def test_splice_edge_index_off_cycle():
    g = ActionGraph(XY, 3, ((1, 2, 0), identity_perm(3)))
    with pytest.raises(PreconditionError) as exc:
        splice(g, SpliceSpec(w("x"), 0, 3, 2))
    assert exc.value.code == "EDGE_NOT_ON_CYCLE"
    with pytest.raises(PreconditionError) as exc:
        splice(g, SpliceSpec(w("x"), 0, 0, 0))
    assert exc.value.code == "INVALID_SPEC"


def _random_reduced_word(rng, max_len):
    letters = []
    target = rng.randrange(1, max_len + 1)
    while len(letters) < target:
        cand = (rng.randrange(2), rng.choice((1, -1)))
        if letters and letters[-1][0] == cand[0] and letters[-1][1] == -cand[1]:
            continue
        letters.append(cand)
    return Word(XY, tuple(letters))


def test_splice_laws_random():
    # the length law is stated for cuts the representative crosses exactly
    # once per period (always true for simple cycles, the engine's domain);
    # sampling rejects multi-crossing picks
    rng = random.Random(20)
    count = 0
    while count < 60:
        n = rng.randrange(2, 10)
        g = ActionGraph(
            XY, n, (tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n)))
        )
        word = _random_reduced_word(rng, 4)
        p = rng.choice((1, 2, 3, 5))
        cycles = u_cycles(g, word)
        target = rng.choice(cycles)
        edge_index = rng.randrange(target.edge_count)
        cut_key = _rep_keys(g, word, target.start, edge_index).pop()
        if _crossings(g, word, target.start, cut_key) != 1:
            continue
        count += 1
        s = splice(g, SpliceSpec(word, target.start, edge_index, p))
        validate(s)
        assert s.degree == g.degree * p

        new_by_start = {c.start: c for c in u_cycles(s, word)}
        # the spliced cycle (through the copy-0 anchor) multiplies by p
        assert new_by_start[target.start].length == target.length * p
        # untouched cycles keep their length, one per copy
        for c in cycles:
            if c.start == target.start:
                continue
            if cut_key in _all_keys(g, word, c.start):
                continue
            for copy in range(p):
                assert new_by_start[c.start + copy * g.degree].length == c.length


def _rep_keys(g, word, start, edge_index):
    from ordsep.surgery import _cut_edge_key

    return {_cut_edge_key(g, word, start, edge_index)}


def _all_keys(g, word, start):
    cycle = next(c for c in u_cycles(g, word) if c.start == start)
    return {(gen, v_from) if sign > 0 else (gen, v_to) for v_from, gen, sign, v_to in cycle.edges()}


def _crossings(g, word, start, cut_key):
    """How often the representative from start traverses the cut edge."""
    from ordsep.action_graph import invert

    inverses = {gen: invert(g.perms[gen]) for gen, sign in set(word.letters) if sign < 0}
    total = 0
    v = start
    for c in u_cycles(g, word):
        if c.start == start:
            for v_from, gen, sign, v_to in c.edges():
                key = (gen, v_from) if sign > 0 else (gen, v_to)
                if key == cut_key:
                    total += 1
    return total


def test_splice_preserves_divisibility():
    # in graphs where all cycle lengths divide the maximum, splicing the
    # maximal cycle keeps that divisibility
    rng = random.Random(4)
    for _ in range(30):
        base = cyclic_power_graph(XY, 8, (1, rng.randrange(8)))
        word = _random_reduced_word(rng, 3)
        cycles = u_cycles(base, word)
        lengths = sorted({c.length for c in cycles})
        if any(lengths[-1] % L for L in lengths):
            continue
        target = max(cycles, key=lambda c: c.length)
        s = splice(base, SpliceSpec(word, target.start, 0, 2))
        new_lengths = [c.length for c in u_cycles(s, word)]
        new_max = max(new_lengths)
        assert all(new_max % L == 0 for L in new_lengths)


def test_find_simple_quotient_single_generator():
    q = find_simple_quotient([w("x")], 2, 0)
    validate(q.graph)
    for c in u_cycles(q.graph, w("x")):
        assert not has_l_near(q.graph, c, 0)
    # the regular two-vertex shift qualifies as well
    z2 = cyclic_power_graph(XY, 2, (1, 0))
    assert _graph_words_ok(z2, [w("x")], 0, 1)


def test_find_simple_quotient_xy_p3():
    q = find_simple_quotient([w("x y")], 3, 0)
    for c in u_cycles(q.graph, w("x y")):
        assert not has_l_near(q.graph, c, 0)
    # the rank-two mod-3 abelianization qualifies: enumerate its 6-edge
    # representatives explicitly
    ab = abelian_power_graph(XY, 3)
    assert _graph_words_ok(ab, [w("x y")], 0, 1)


def test_find_simple_quotient_commutator_in_abelian_family():
    # the mod-4 cyclic quotient with exponents (1, 2) already makes every
    # commutator cycle simple: representatives trace 0,1,3,2 without repeats
    comm = w("x y x^-1 y^-1")
    q = find_simple_quotient([comm], 2, 0)
    assert q.graph.degree == 4
    assert q.graph.perms == ((1, 2, 3, 0), (2, 3, 0, 1))
    for c in u_cycles(q.graph, comm):
        assert c.length == 1
        assert not has_l_near(q.graph, c, 0)


def test_find_simple_quotient_min_order():
    q = find_simple_quotient([w("x"), w("y")], 2, 0, min_order=5)
    assert element_order(q.graph, w("x")) >= 5
    assert element_order(q.graph, w("y")) >= 5


def test_find_simple_quotient_rejects_nonprime():
    with pytest.raises(PreconditionError) as exc:
        find_simple_quotient([w("x")], 4, 0)
    assert exc.value.code == "NOT_PRIME"


def test_p_group_witness_sampling():
    rng = random.Random(9)
    samples = []
    for p in (2, 3):
        samples.append((p, find_simple_quotient([w("x y")], p, 0, min_order=2).graph))
    samples.append((2, equalize_orders([w("x")], w("y"), 2, 1).quotient.graph))
    samples.append((3, equalize_orders([w("x"), w("y")], w("x y"), 3, 2).quotient.graph))
    for p, g in samples:
        for _ in range(20):
            word = _random_reduced_word(rng, 6)
            order = element_order(g, word)
            while order % p == 0:
                order //= p
            assert order == 1


def test_equalize_orders_single_u():
    rep = equalize_orders([w("x")], w("y"), 2, 1)
    g = rep.quotient.graph
    ox, oy = element_order(g, w("x")), element_order(g, w("y"))
    assert ox > oy > 1
    assert rep.orders == {"x": ox, "y": oy}


def test_equalize_orders_two_us():
    rep = equalize_orders([w("x"), w("y")], w("x y"), 2, 2)
    g = rep.quotient.graph
    ox, oy, ov = (element_order(g, t) for t in (w("x"), w("y"), w("x y")))
    assert ox == oy > ov > 1
    assert ox > 2


def test_equalize_orders_three_us():
    us = [w("x"), w("y"), w("x y^-1")]
    v = w("x y y")
    rep = equalize_orders(us, v, 3, 4)
    g = rep.quotient.graph
    orders = [element_order(g, u) for u in us]
    ov = element_order(g, v)
    assert orders[0] == orders[1] == orders[2]
    assert orders[0] > ov > 1
    assert orders[0] > 4
    # engine trace for this fixture: two balancing phases
    assert rep.shared_path_lengths == [[1], [1, 2]]


def test_equalize_rejects_commensurable():
    with pytest.raises(PreconditionError) as exc:
        equalize_orders([w("x y"), w("y x")], w("y"), 2, 1)
    assert exc.value.code == "PRECONDITION_COMMENSURABLE"
    assert exc.value.details["i"] == 0 and exc.value.details["j"] == 1


def test_equalize_rejects_small_prime():
    with pytest.raises(PreconditionError) as exc:
        equalize_orders([w("x x")], w("y"), 2, 1)
    assert exc.value.code == "P_TOO_SMALL"


def test_equalize_handles_proper_powers_via_roots():
    rep = equalize_orders([w("x x x")], w("y"), 5, 1)
    g = rep.quotient.graph
    assert element_order(g, w("x x x")) > element_order(g, w("y")) > 1


def test_exact_order_generator():
    q = exact_order_quotient(w("x"), 5)
    assert q.graph.degree == 5
    assert element_order(q.graph, w("x")) == 5


def test_exact_order_xy_cyclic():
    q = exact_order_quotient(w("x y"), 4)
    assert q.graph.degree == 4
    # exponent assignment x -> 1, y -> 0 in the four-vertex shift
    assert q.graph.perms == ((1, 2, 3, 0), (0, 1, 2, 3))
    assert element_order(q.graph, w("x y")) == 4


def test_exact_order_commutator_needs_nonabelian():
    comm = w("x y x^-1 y^-1")
    q = exact_order_quotient(comm, 2)
    assert element_order(q.graph, comm) == 2
    q = exact_order_quotient(comm, 6)
    assert element_order(q.graph, comm) == 6


def test_exact_order_range():
    for n in range(1, 13):
        q = exact_order_quotient(w("x x y"), n)
        assert element_order(q.graph, w("x x y")) == n


def test_exact_order_rejects_proper_power():
    with pytest.raises(PreconditionError) as exc:
        exact_order_quotient(w("x y x y"), 3)
    assert exc.value.code == "PROPER_POWER"
    with pytest.raises(PreconditionError) as exc:
        exact_order_quotient(w("x x^-1"), 3)
    assert exc.value.code == "EMPTY_WORD"


def test_magnus_coefficients_commutator():
    coeffs = magnus_coefficients(w("x y x^-1 y^-1"), 2)
    assert coeffs[(0, 1)] == 1
    assert coeffs[(1, 0)] == -1
    assert (0,) not in coeffs and (1,) not in coeffs


def test_truncated_unit_group_is_p_group():
    group = TruncatedUnitGroup(2, 2, 1, 2)
    elems = group.closure(1000, Budget(100000))
    n = len(elems)
    while n % 2 == 0:
        n //= 2
    assert n == 1
    gen_order = group.element_order(group.gen(0))
    assert gen_order in (2, 4)


def test_budget_exhaustion_is_reported():
    with pytest.raises(BudgetExceeded):
        find_simple_quotient([w("x y")], 2, 0, budget=Budget(1), min_order=64)


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def _prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, n))


def _valuation(n, q):
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


@given(st.integers(0, 500))
def test_next_prime_is_the_least_prime_above(n):
    q = next_prime(n)
    assert q > n and _prime_by_trial_division(q)
    assert not any(_prime_by_trial_division(k) for k in range(n + 1, q))


@given(st.integers(1, 5000), st.integers(1, 5000))
def test_distinct_prime_is_the_least_prime_where_valuations_differ(a, b):
    assume(a != b)
    q = _distinct_prime(a, b)
    assert _prime_by_trial_division(q)
    assert _valuation(a, q) != _valuation(b, q)
    assert all(
        _valuation(a, r) == _valuation(b, r)
        for r in range(2, q)
        if _prime_by_trial_division(r)
    )


class _TaggedBudget(Budget):
    def __init__(self):
        super().__init__()
        self.by_tag = Counter()

    def charge(self, amount=1, what="work"):
        self.by_tag[what] += amount
        super().charge(amount, what)


@pytest.mark.parametrize(
    "us, v, floor", [(["x", "y"], "x y", 256), (["x y", "x y^-1"], "x", 64)]
)
def test_p_action_fallback_skips_degrees_below_min_order(us, v, floor):
    # every element of a p-group on d <= 8 points has order <= 8 < floor + 1
    budget = _TaggedBudget()
    with pytest.raises(BudgetExceeded) as exc:
        equalize_orders([w(u) for u in us], w(v), 2, floor, budget)
    assert exc.value.code == "BUDGET_EXCEEDED"
    assert budget.by_tag["p-action candidate"] == 0
