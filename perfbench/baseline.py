"""The ROADMAP baseline rows, measured: ``python3 perfbench/run.py --baseline``.

Wall times are untraced.  The precheck share is the time spent in
``conjugate_in_amalgam`` inside ``separate_orders``, from a second, traced
execution of the same calls.
"""

from __future__ import annotations

import random
import time

import gen
import spans
from ordsep import amalgam, amalgam_graph, errors, surgery, words

XY = words.Basis(("x", "y"))


def _timed(fn):
    t0 = time.perf_counter()
    try:
        out = fn()
    except (errors.BudgetExceeded, errors.CapExceeded) as err:
        out = err
    return time.perf_counter() - t0, out


def _separations(pairs, pres):
    """(untraced wall, precheck seconds, separate_orders seconds) over pairs."""
    parsed = [(amalgam.parse_amalgam_word(u, pres), amalgam.parse_amalgam_word(v, pres))
              for u, v in pairs]
    wall, results = _timed(lambda: [amalgam_graph.separate_orders(u, v, pres) for u, v in parsed])
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        tracer.begin_op(0)
        for u, v in parsed:
            amalgam_graph.separate_orders(u, v, pres)
        tracer.end_op(0.0)
    finally:
        uninstall()
    degrees = [r.quotient.graph.degree for r in results]
    return (wall, tracer.total_s["amalgam.conjugate_in_amalgam"],
            tracer.total_s["amalgam_graph.separate_orders"], degrees)


def _conjugacy_test_pairs(pres):
    """The 40 draws of test_conjugacy_randomized_detection (seed 5)."""
    specs = gen._conjugate_pairs(random.Random(5), "P1", 40, draws=40)
    return [(amalgam.parse_amalgam_word(op["u"], pres), amalgam.parse_amalgam_word(op["v"], pres))
            for op in specs]


def main():
    pres = amalgam.presentation_from_json(gen.PRESENTATIONS["P1"])
    rows = []
    for label, pairs in (("acceptance separation catalog (6 cases)", gen.SEPARATION_CATALOG),
                         ("6-syllable alternating pair, a=x, b=s", [gen.SIX_SYLLABLE_PAIR])):
        wall, pre, total, degrees = _separations(pairs, pres)
        rows.append((label, f"{wall:.2f} s",
                     f"precheck {pre / total:.0%} of traced separate_orders; degrees {degrees}"))
    pairs = _conjugacy_test_pairs(pres)
    wall, answers = _timed(lambda: [amalgam.conjugate_in_amalgam(u, v, pres).status
                                    for u, v in pairs])
    rows.append((f"randomized conjugacy set ({len(pairs)} pairs)", f"{wall:.2f} s",
                 f"answers: {sorted(set(answers))}"))
    commutator = words.parse_word("x y x^-1 y^-1", XY)
    for n in (16, 27, 32):
        wall, out = _timed(lambda: surgery.exact_order_quotient(commutator, n))
        note = (f"degree {out.graph.degree}" if not isinstance(out, Exception)
                else f"{out.code}: {out}")
        rows.append((f"exact_order_quotient([x,y], {n})", f"{wall:.2f} s", note))
    us = [words.parse_word("x", XY), words.parse_word("y", XY)]
    wall, out = _timed(lambda: surgery.equalize_orders(us, words.parse_word("x y", XY), 2, 256))
    note = (f"degree {out.quotient.graph.degree}" if not isinstance(out, Exception)
            else f"{out.code}: {out}")
    rows.append(("equalize_orders([x,y], xy, p=2, N=256)", f"{wall:.2f} s", note))

    print("| workload | wall | note |")
    print("|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 0
