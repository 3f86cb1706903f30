"""Operations of the benchmark workloads and the checks of their outputs.

``prepare(spec, env)`` parses one generated op into an ``Op``: ``run(budget)``
is the timed call into ordsep, ``check(result)`` re-derives the answer from
the output (it never trusts a field the program returns) and raises
``WrongAnswer`` when it does not hold.  Library calls go through module
attributes looked up at call time, so the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ordsep import action_graph, amalgam, amalgam_graph, budget, errors, oracle, surgery, words

# outcomes a bounded search may end in; each counts as a refusal, not an error
REFUSALS = (errors.BudgetExceeded, errors.UndecidedConjugacy, errors.CapExceeded)


class WrongAnswer(Exception):
    """An output failed its recomputed check."""


@dataclass
class Outcome:
    result: object
    refusal: Optional[str] = None  # error code when the op was refused


@dataclass
class Op:
    spec: dict
    run: Callable[[budget.Budget], object]
    check: Callable[[object], int]  # returns the certificate degree
    first: dict = field(default_factory=dict)  # CLI: first output and its budget units


def _require(cond, spec, what):
    if not cond:
        raise WrongAnswer(f"op {spec.get('id')} {spec['kind']}: {what}")


def _free_word(text):
    return words.parse_word(text, words.Basis(("x", "y")))


def check_amalgam_certificate(quotient, u, v, pres, spec):
    """The graph must be a valid action of the amalgam giving u and v
    different orders, and its recorded witness orders must hold."""
    graph = quotient.graph
    try:
        action_graph.validate(graph)
    except errors.ValidationError as err:
        raise WrongAnswer(f"op {spec.get('id')}: invalid graph: {err}") from None
    _require(quotient.source == pres, spec, "certificate names another presentation")
    a_img = action_graph.image_perm(graph, amalgam.flatten_to_free(pres, [("A", pres.a)]))
    b_img = action_graph.image_perm(graph, amalgam.flatten_to_free(pres, [("B", pres.b)]))
    _require(a_img == b_img, spec, "images of a and b differ: not an amalgam action")
    ou = action_graph.element_order(graph, amalgam.flatten_to_free(pres, u.syllables))
    ov = action_graph.element_order(graph, amalgam.flatten_to_free(pres, v.syllables))
    _require(ou != ov, spec, f"recomputed orders agree ({ou})")
    _require(oracle.oracle_consistency(quotient, u, v) == "ok", spec, "oracle_consistency")
    return graph.degree


def check_free_certificate(quotient, spec):
    try:
        action_graph.validate(quotient.graph)
    except errors.ValidationError as err:
        raise WrongAnswer(f"op {spec.get('id')}: invalid graph: {err}") from None
    _require(quotient.check_witnesses(), spec, "a claimed witness order does not hold")
    return quotient.graph.degree


def _prepare_separate(spec, env):
    pres = env["presentations"][spec["pres"]]
    u = amalgam.parse_amalgam_word(spec["u"], pres)
    v = amalgam.parse_amalgam_word(spec["v"], pres)

    def run(b):
        return amalgam_graph.separate_orders(u, v, pres, b)

    def check(result):
        return check_amalgam_certificate(result.quotient, u, v, pres, spec)

    return run, check


def _prepare_conjugate(spec, env):
    pres = env["presentations"][spec["pres"]]
    u = amalgam.parse_amalgam_word(spec["u"], pres)
    v = amalgam.parse_amalgam_word(spec["v"], pres)
    if spec.get("inverse"):
        v = v.inverse()

    def run(b):
        res = amalgam.conjugate_in_amalgam(u, v, pres, b)
        if res.status == "unknown":
            raise errors.UndecidedConjugacy("conjugacy scan ran out of budget")
        return res

    def check(res):
        _require(res.status == "yes", spec, f"conjugate pair answered {res.status!r}")
        g = res.witness
        lhs = amalgam.reduce_amalgam(g.inverse() * u * g, pres)
        _require(lhs == amalgam.reduce_amalgam(v, pres), spec, "witness does not conjugate u to v")
        return 0

    return run, check


def _prepare_equalize(spec, env):
    us = [_free_word(t) for t in spec["us"]]
    v = _free_word(spec["v"])
    p, floor = spec["p"], spec["N"]

    def run(b):
        return surgery.equalize_orders(us, v, p, floor, b)

    def check(report):
        degree = check_free_certificate(report.quotient, spec)
        graph = report.quotient.graph
        orders = [action_graph.element_order(graph, u) for u in us]
        order_v = action_graph.element_order(graph, v)
        _require(len(set(orders)) == 1, spec, f"orders not equalized: {orders}")
        _require(orders[0] > order_v > 1, spec, f"order pattern fails: {orders} vs {order_v}")
        _require(orders[0] > floor, spec, f"orders {orders[0]} not above N = {floor}")
        return degree

    return run, check


def _prepare_exact(spec, env):
    w = _free_word(spec["word"])
    n = spec["n"]

    def run(b):
        return surgery.exact_order_quotient(w, n, b)

    def check(quotient):
        degree = check_free_certificate(quotient, spec)
        order = action_graph.element_order(quotient.graph, w)
        _require(order == n, spec, f"image order {order}, wanted {n}")
        return degree

    return run, check


def run_cli_in_process(argv):
    """(exit code, stdout bytes, budget units) of the CLI run in this process."""
    spent = []

    class RecordingBudget(budget.Budget):
        def charge(self, amount=1, what="work"):
            spent.append(int(amount))
            super().charge(amount, what)

    from ordsep import cli

    out = io.StringIO()
    saved, cli.Budget = cli.Budget, RecordingBudget
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        cli.Budget = saved
    return code, out.getvalue().encode(), sum(spent)


def _check_cli_output(spec, stdout, env):
    """Re-derive the CLI's answer from what it printed; returns the
    certificate degree (0 when the command emits none)."""
    cmd, args = spec["cmd"], spec["args"]
    p1 = env["presentations"]["P1"]
    if cmd == "export-dot":
        with open(env["files"]["{GRAPH}"]) as handle:
            graph = action_graph.graph_from_json(json.load(handle)["graph"])
        names_a = set(p1.basis_a.names)
        dot = action_graph.graph_to_dot(graph, lambda n: "A" if n in names_a else "B")
        _require(stdout.decode() == dot, spec, "DOT export differs from the graph")
        return 0
    data = json.loads(stdout)
    if cmd == "reduce":
        word = _free_word(data["word"])
        _require(word.is_reduced(), spec, "output not reduced")
        _require(words.reduce(_free_word(args["word"])) == word, spec, "reduce changed the element")
    elif cmd == "conj":
        u, v = _free_word(args["u"]), _free_word(args["v"])
        _require(data["conjugate"], spec, "conjugate words reported non-conjugate")
        g = _free_word(data["witness"])
        _require(words.reduce(g.inverse() * u * g) == words.reduce(v), spec, "bad witness")
    elif cmd == "amalgam-reduce":
        out = amalgam.parse_amalgam_word(data["word"], p1)
        want = amalgam.reduce_amalgam(amalgam.parse_amalgam_word(args["word"], p1), p1)
        _require(amalgam.reduce_amalgam(out, p1) == out == want, spec, "not the normal form")
    elif cmd == "exact-order":
        quotient = action_graph.quotient_from_json(data)
        check_free_certificate(quotient, spec)
        order = action_graph.element_order(quotient.graph, _free_word(args["word"]))
        _require(order == args["n"], spec, f"image order {order}, wanted {args['n']}")
        return quotient.graph.degree
    elif cmd == "equalize":
        quotient = action_graph.quotient_from_json(data["quotient"])
        check_free_certificate(quotient, spec)
        orders = {action_graph.element_order(quotient.graph, _free_word(u)) for u in args["us"]}
        order_v = action_graph.element_order(quotient.graph, _free_word(args["v"]))
        _require(len(orders) == 1 and min(orders) > max(order_v, args["N"]) and order_v > 1,
                 spec, f"order pattern fails: {orders} vs {order_v}")
        return quotient.graph.degree
    elif cmd == "separate":
        graph = action_graph.graph_from_json(data["graph"])
        quotient = action_graph.FiniteQuotient(graph, p1, dict(data["orders"]))
        u = amalgam.parse_amalgam_word(args["u"], p1)
        v = amalgam.parse_amalgam_word(args["v"], p1)
        return check_amalgam_certificate(quotient, u, v, p1, spec)
    return 0


def _prepare_cli(spec, env):
    argv = ["--format", "json"] + [env["files"].get(a, a) for a in spec["argv"]]
    command = [sys.executable, "-m", "ordsep.cli", *argv]
    op = Op(spec, None, None)
    first = op.first

    def run(b):
        return subprocess.run(command, capture_output=True, env=env["cli_env"],
                              cwd=env["root"], timeout=120)

    def check(proc):
        _require(proc.returncode == 0, spec, f"exit {proc.returncode}: {proc.stderr[-300:]!r}")
        if not first:
            code, local, units = run_cli_in_process(argv)
            _require(code == 0 and local == proc.stdout, spec, "output differs from in-process run")
            first.update(stdout=proc.stdout, units=units,
                         degree=_check_cli_output(spec, proc.stdout, env))
        _require(proc.stdout == first["stdout"], spec, "output not byte-identical across runs")
        return first["degree"]

    op.run, op.check = run, check
    return op


_PREPARE = {
    "separate": _prepare_separate,
    "conjugate": _prepare_conjugate,
    "equalize": _prepare_equalize,
    "exact": _prepare_exact,
}


def make_env(root, presentations, files=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return {
        "root": root,
        "presentations": {k: amalgam.presentation_from_json(v) for k, v in presentations.items()},
        "files": files or {},
        "cli_env": env,
    }


def prepare(spec, env):
    if spec["kind"] == "cli":
        return _prepare_cli(spec, env)
    run, check = _PREPARE[spec["kind"]](spec, env)
    return Op(spec, run, check)


def execute(op, b):
    """Run one op; returns (seconds, Outcome).  Refusals are outcomes; any
    other exception propagates."""
    t0 = time.perf_counter()
    try:
        result = op.run(b)
    except REFUSALS as err:
        return time.perf_counter() - t0, Outcome(None, refusal=err.code)
    return time.perf_counter() - t0, Outcome(result)
