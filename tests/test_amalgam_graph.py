import pytest

from ordsep.action_graph import (
    ActionGraph,
    FiniteQuotient,
    element_order,
    has_l_near,
    image_perm,
    perm_orbits,
    quotient_to_json,
    u_cycles,
)
from ordsep.amalgam import (
    AmalgamPresentation,
    AmalgamWord,
    cyclically_reduce_amalgam,
    flatten_to_free,
    matched_pair,
    parse_amalgam_word,
)
from ordsep.amalgam_graph import (
    AmalgamActionGraph,
    GluingSpec,
    PermGroup,
    aag_from_json,
    aag_product,
    aag_to_json,
    amalgam_splice,
    c_near_edges,
    c_near_paths,
    canonical_gluing,
    coset_subgraph,
    factor_pair,
    glue_quotient,
    rep_has_near_vertices,
    separate_orders,
    syllable_rep,
    validate_amalgam_graph,
    word_reps_near_free,
)
from ordsep.errors import BudgetExceeded, PreconditionError, ValidationError
from ordsep.oracle import oracle_consistency
from ordsep.surgery import exact_order_quotient
from ordsep.words import Basis, Word, parse_word

A = Basis(("x", "y"))
B = Basis(("s", "t"))
PRES = AmalgamPresentation(A, B, parse_word("x", A), parse_word("s", B))


def aw(text):
    return parse_amalgam_word(text, PRES)


def z4_pair():
    qa = exact_order_quotient(parse_word("x", A), 4)
    qb = exact_order_quotient(parse_word("s", B), 4)
    return qa, qb


def glue_canonical(qa, qb):
    pair = factor_pair(PRES, qa, qb)
    return glue_quotient(PRES, *pair, canonical_gluing(*pair))


def matched_glue(u_text, v_text, p=2):
    u, _ = cyclically_reduce_amalgam(aw(u_text), PRES)
    v, _ = cyclically_reduce_amalgam(aw(v_text), PRES)
    qa, qb = matched_pair(u, v, PRES, p)
    return glue_canonical(qa, qb), u, v


def test_glue_minimal_cyclic():
    qa, qb = z4_pair()
    aag = glue_canonical(qa, qb)
    assert aag.degree == 4
    assert aag.n == 4
    validate_amalgam_graph(aag)
    # both subgroup generators act as the same 4-cycle
    a_img = image_perm(aag.graph, flatten_to_free(PRES, [("A", PRES.a)]))
    b_img = image_perm(aag.graph, flatten_to_free(PRES, [("B", PRES.b)]))
    assert a_img == b_img
    assert element_order(aag.graph, flatten_to_free(PRES, [("A", PRES.a)])) == 4


def test_glue_order_mismatch():
    qa = exact_order_quotient(parse_word("x", A), 2)
    qb = exact_order_quotient(parse_word("s", B), 3)
    with pytest.raises(PreconditionError) as exc:
        factor_pair(PRES, qa, qb)
    assert exc.value.code == "ORDER_MISMATCH"


def test_glue_spec_invalid():
    pair = factor_pair(PRES, *z4_pair())
    with pytest.raises(PreconditionError) as exc:
        glue_quotient(PRES, *pair, GluingSpec(2, 1, (0,), (0,)))
    assert exc.value.code == "SPEC_INVALID"
    with pytest.raises(PreconditionError) as exc:
        glue_quotient(PRES, *pair, GluingSpec(1, 1, (0,), (7,)))
    assert exc.value.code == "SPEC_INVALID"


def test_validate_detects_agreement_violation():
    # both sides free and regular, but the B coordinates read the cycle in a
    # non-translated order, so the two subgroup generators act differently
    qa, qb = z4_pair()
    aag = glue_canonical(qa, qb)
    scrambled = (0, 1, 3, 2)
    b_elem = tuple(scrambled[v] for v in range(4))
    s_index = aag.graph.basis.index("s")
    table = aag.factor_b.tables[0]
    inv = {e: v for v, e in enumerate(b_elem)}
    s_perm = tuple(inv[table[b_elem[v]]] for v in range(4))
    perms = list(aag.graph.perms)
    perms[s_index] = s_perm
    bad = AmalgamActionGraph(
        PRES,
        ActionGraph(aag.graph.basis, 4, tuple(perms)),
        aag.factor_a,
        aag.factor_b,
        aag.a_block,
        aag.a_elem,
        aag.b_block,
        b_elem,
    )
    with pytest.raises(ValidationError) as exc:
        validate_amalgam_graph(bad)
    assert exc.value.code == "AGREEMENT_VIOLATION"


def test_validate_detects_not_free():
    qa, qb = z4_pair()
    aag = glue_canonical(qa, qb)
    collapsed = list(aag.a_elem)
    collapsed[1] = collapsed[0]
    bad = AmalgamActionGraph(
        PRES, aag.graph, aag.factor_a, aag.factor_b,
        aag.a_block, tuple(collapsed), aag.b_block, aag.b_elem,
    )
    with pytest.raises(ValidationError) as exc:
        validate_amalgam_graph(bad)
    assert exc.value.code == "NOT_FREE"


def test_validate_detects_not_action():
    qa, qb = z4_pair()
    aag = glue_canonical(qa, qb)
    perms = [list(p) for p in aag.graph.perms]
    perms[0][0], perms[0][1] = perms[0][1], perms[0][0]
    bad = AmalgamActionGraph(
        PRES,
        ActionGraph(aag.graph.basis, 4, tuple(tuple(p) for p in perms)),
        aag.factor_a, aag.factor_b,
        aag.a_block, aag.a_elem, aag.b_block, aag.b_elem,
    )
    with pytest.raises(ValidationError) as exc:
        validate_amalgam_graph(bad)
    assert exc.value.code == "NOT_ACTION"


def test_coset_subgraphs():
    qa, qb = z4_pair()
    aag = glue_canonical(qa, qb)
    assert coset_subgraph(aag, 0, "A") == (0, 1, 2, 3)
    assert coset_subgraph(aag, 0, "B") == (0, 1, 2, 3)
    assert coset_subgraph(aag, 0, "C") == (0, 1, 2, 3)

    aag2, _, _ = matched_glue("A:{y} B:{t}", "A:{y y}", p=3)
    p = 0
    orbit = coset_subgraph(aag2, p, "C")
    assert len(orbit) == aag2.n
    block = coset_subgraph(aag2, p, "A")
    assert set(orbit) <= set(block)


def test_c_near_edges_and_paths():
    aag, _, _ = matched_glue("A:{y} B:{t}", "A:{y y}", p=3)
    e = (0, "y", 1)
    assert c_near_edges(aag, e, e) is True
    f = (0, "t", 1)
    assert c_near_edges(aag, e, f) is False
    ids = aag.c_orbit_ids
    # another y-edge with both endpoints in the same orbit pair
    y_perm = aag.graph.perms[1]
    v0 = 0
    partner = None
    for v in range(1, aag.degree):
        if v == v0:
            continue
        if ids[v] == ids[v0] and ids[y_perm[v]] == ids[y_perm[v0]] and v != v0:
            partner = v
            break
    if partner is not None:
        assert c_near_edges(aag, (v0, "y", 1), (partner, "y", 1)) is True
    with pytest.raises(PreconditionError) as exc:
        c_near_paths(aag, [e], [e, e])
    assert exc.value.code == "LENGTH_MISMATCH"


def test_amalgam_splice_identity_and_laws():
    aag, u, _ = matched_glue("A:{y} B:{t}", "A:{y y}", p=2)
    wu = flatten_to_free(PRES, u.syllables)
    perm = image_perm(aag.graph, wu)
    maxlen = max(len(o) for o in perm_orbits(perm))
    anchor = min(min(o) for o in perm_orbits(perm) if len(o) == maxlen)

    same = amalgam_splice(aag, u, anchor, 0, 1)
    assert same.degree == aag.degree
    assert element_order(same.graph, wu) == element_order(aag.graph, wu)

    ids = aag.c_orbit_ids
    cut_orbit = ids[syllable_rep(aag, u, anchor)[0][2]]
    cut_side = u.syllables[0][0]
    for n in (2, 3):
        s = amalgam_splice(aag, u, anchor, 0, n)
        validate_amalgam_graph(s)
        assert s.degree == aag.degree * n
        new_perm = image_perm(s.graph, wu)
        anchor_cycle = next(len(o) for o in perm_orbits(new_perm) if anchor in o)
        assert anchor_cycle == maxlen * n
        # cycles whose representatives never touch the cut orbit with the cut
        # factor keep their length, one copy at a time
        for orbit in perm_orbits(perm):
            rep = syllable_rep(aag, u, orbit[0])
            touches = any(
                side == cut_side and (ids[a] == cut_orbit or ids[b] == cut_orbit)
                for a, side, b in rep
            )
            if touches:
                continue
            for copy in range(n):
                start = orbit[0] + copy * aag.degree
                new_len = next(len(o) for o in perm_orbits(new_perm) if start in o)
                assert new_len == len(orbit)


def test_amalgam_splice_invalid_inputs():
    aag, u, _ = matched_glue("A:{y} B:{t}", "A:{y y}", p=2)
    with pytest.raises(PreconditionError) as exc:
        amalgam_splice(aag, u, 0, 10_000, 2)
    assert exc.value.code == "INVALID_POSITION"
    with pytest.raises(PreconditionError) as exc:
        amalgam_splice(aag, aw("A:{y}"), 0, 0, 2)
    assert exc.value.code == "NOT_CYCLICALLY_REDUCED"


def test_aag_product_multiplies_blocks():
    aag, u, _ = matched_glue("A:{y} B:{t}", "A:{y y}", p=2)
    prod = aag_product(aag, aag)
    validate_amalgam_graph(prod)
    assert prod.degree == aag.degree**2
    assert max(prod.a_block) + 1 > max(aag.a_block) + 1


def _factor_element_graph(aag):
    """Action graph over one generator per nonidentity factor-group element;
    distances here realize the paper-level near-vertex semantics."""
    names = []
    perms = []
    for side, group in (("A", aag.factor_a.group), ("B", aag.factor_b.group)):
        for h in range(1, len(group)):
            names.append(f"{side}{h}")
            perms.append(aag.act(side, h))
    return ActionGraph(Basis(tuple(names)), aag.degree, tuple(perms)), names


def _as_element_word(aag, graph, names, u):
    letters = []
    for side, syl in u.syllables:
        factor = aag.factor_a if side == "A" else aag.factor_b
        perm = image_perm(factor.quot.graph, syl)
        idx = factor.group.index[perm]
        assert idx != 0, "syllable must act nontrivially"
        letters.append((graph.basis.index(f"{side}{idx}"), 1))
    return Word(graph.basis, tuple(letters))


def test_near_vertex_check_matches_graph_distances():
    aag, u, v = matched_glue("A:{y} B:{t}", "A:{y} B:{t^-1}", p=2)
    graph, names = _factor_element_graph(aag)
    word = _as_element_word(aag, graph, names, u)
    for cycle in u_cycles(graph, word):
        block_answer = rep_has_near_vertices(
            aag, [s[0] for s in syllable_rep(aag, u, cycle.start)]
        )
        assert block_answer == has_l_near(graph, cycle, 1)
    assert word_reps_near_free(aag, u) == all(
        not has_l_near(graph, c, 1) for c in u_cycles(graph, word)
    )


CATALOG = [
    ("A:{y} B:{t}", "1"),
    ("A:{y}", "A:{y y}"),
    ("A:{y}", "B:{t}"),
    ("A:{y} B:{t}", "A:{y} B:{t^-1}"),
    ("A:{y} B:{t}", "A:{y y} B:{t}"),
    ("A:{y} B:{t} A:{y y} B:{t}", "A:{y} B:{t} A:{y y} B:{t^-1}"),
]


@pytest.mark.parametrize("u_text,v_text", CATALOG)
def test_separate_orders_catalog(u_text, v_text):
    u, v = aw(u_text), aw(v_text)
    res = separate_orders(u, v, PRES)
    q = res.quotient
    wu = flatten_to_free(PRES, u.syllables)
    wv = flatten_to_free(PRES, v.syllables)
    assert element_order(q.graph, wu) != element_order(q.graph, wv)
    assert oracle_consistency(q, u, v) == "ok"


def test_separate_rejects_conjugates():
    u = aw("A:{y} B:{t} A:{y y} B:{t}")
    v = aw("A:{y y} B:{t} A:{y} B:{t}")
    with pytest.raises(PreconditionError) as exc:
        separate_orders(u, v, PRES)
    assert exc.value.code == "CONJUGATE_INPUTS"


def test_separate_rejects_inverse_conjugates():
    u = aw("A:{y} B:{t}")
    v = reduce_inverse_rotation(u)
    with pytest.raises(PreconditionError) as exc:
        separate_orders(u, v, PRES)
    assert exc.value.code == "CONJUGATE_INPUTS"


def reduce_inverse_rotation(u):
    from ordsep.amalgam import reduce_amalgam

    inv = reduce_amalgam(u.inverse(), PRES)
    return AmalgamWord(inv.syllables[1:] + inv.syllables[:1])


def test_factor_groups_embed():
    aag, _, _ = matched_glue("A:{y} B:{t}", "A:{y y}", p=2)
    ident = tuple(range(aag.degree))
    for side, group in (("A", aag.factor_a.group), ("B", aag.factor_b.group)):
        for h in range(1, len(group)):
            assert aag.act(side, h) != ident


def test_perm_group_closure():
    group = PermGroup(((1, 0, 2), (0, 2, 1)))
    assert len(group) == 6  # two transpositions generate the full symmetric group


def test_aag_json_round_trip():
    aag, u, _ = matched_glue("A:{y} B:{t}", "A:{y y}", p=2)
    loaded = aag_from_json(aag_to_json(aag))
    assert loaded.graph == aag.graph
    assert loaded.a_block == aag.a_block and loaded.b_elem == aag.b_elem
    assert loaded.n == aag.n


def test_aag_product_accepts_a_reloaded_factor():
    # common factor groups are compared by content, not by object identity
    aag, _, _ = matched_glue("A:{y} B:{t}", "A:{y y}", p=2)
    want = aag_product(aag, aag)
    got = aag_product(aag, aag_from_json(aag_to_json(aag)))
    assert got.graph == want.graph
    assert (got.a_block, got.a_elem, got.b_block, got.b_elem) == (
        want.a_block, want.a_elem, want.b_block, want.b_elem
    )


@pytest.mark.parametrize(
    "field,index,value",
    [("a_elem", 3, 7), ("a_elem", 3, -1), ("a_block", 0, -1), ("b_elem", 0, 4)],
)
def test_aag_from_json_rejects_out_of_range_coordinates(field, index, value):
    data = aag_to_json(glue_canonical(*z4_pair()))
    assert data[field][index] != value
    data[field][index] = value
    with pytest.raises(ValidationError) as exc:
        aag_from_json(data)
    assert exc.value.code == "NOT_FREE"


def test_aag_from_json_rejects_a_wrong_subgroup_order():
    data = aag_to_json(glue_canonical(*z4_pair()))
    assert data["subgroup_order"] == 4
    data["subgroup_order"] = 99
    with pytest.raises(ValidationError) as exc:
        aag_from_json(data)
    assert exc.value.code == "SUBGROUP_ORDER"


@pytest.mark.parametrize("names", [("s",), ("t", "s")])
def test_aag_from_json_rejects_a_quotient_over_another_basis(names):
    data = aag_to_json(glue_canonical(*z4_pair()))
    basis = Basis(names)
    data["quot_b"] = quotient_to_json(exact_order_quotient(parse_word("s", basis), 4))
    with pytest.raises(ValidationError) as exc:
        aag_from_json(data)
    assert exc.value.code == "BASIS_MISMATCH"


def test_factor_group_cap_precedes_order_mismatch():
    # an 8-cycle and a transposition generate Sym(8), past the closure cap;
    # the cap is reported before the mismatched subgroup orders are
    big = ActionGraph(A, 8, ((1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)))
    qa = FiniteQuotient(big, A, {})
    qb = exact_order_quotient(parse_word("s", B), 3)
    with pytest.raises(BudgetExceeded):
        factor_pair(PRES, qa, qb)
