"""Tests of the benchmark itself: ``python -m pytest -q perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from ordsep import action_graph  # noqa: E402


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = gen.generate(workload, 7)
    assert first == gen.generate(workload, 7)
    assert json.loads(json.dumps(first)) == first
    others = [gen.generate(workload, seed)["ops"] for seed in range(8)]
    assert any(o != first["ops"] for o in others)


def test_named_cases_are_never_mapped():
    for workload, build_base in gen.WORKLOADS.items():
        base = [op for op in build_base(gen.random.Random(f"{workload}/base"))
                if op.get("as_written")]
        for seed in range(4):
            kept = [{k: v for k, v in op.items() if k != "id"}
                    for op in gen.generate(workload, seed)["ops"] if op.get("as_written")]
            assert sorted(map(json.dumps, kept)) == sorted(map(json.dumps, base))
    built = gen.generate("build", 0)["ops"]
    for refusal in gen.KNOWN_REFUSALS:
        assert any(op == dict(refusal, as_written=True, id=op["id"]) for op in built)


def _env():
    return ops.make_env(str(HERE.parent), gen.PRESENTATIONS)


def _separation_op():
    spec = {"id": 0, "kind": "separate", "pres": "P1", "u": "A:{y} B:{t}", "v": "A:{y y} B:{t}"}
    return ops.prepare(spec, _env())


def test_separation_certificate_passes_its_checks():
    op = _separation_op()
    assert op.check(op.run(None)) > 0


def test_corrupted_permutation_entry_is_rejected():
    op = _separation_op()
    result = op.run(None)
    graph = result.quotient.graph
    perms = [list(p) for p in graph.perms]
    perms[0][0] = perms[0][1]  # two vertices now share an image
    result.quotient.graph = action_graph.ActionGraph(graph.basis, graph.degree,
                                                    tuple(map(tuple, perms)))
    with pytest.raises(ops.WrongAnswer):
        op.check(result)


def test_false_claimed_order_is_rejected():
    spec = {"id": 0, "kind": "exact", "word": "x y x^-1 y^-1", "n": 8}
    op = ops.prepare(spec, _env())
    quotient = op.run(None)
    assert op.check(quotient) == quotient.graph.degree
    ((text, order),) = quotient.witness_orders.items()
    quotient.witness_orders[text] = order * 2
    with pytest.raises(ops.WrongAnswer):
        op.check(quotient)


def test_equal_orders_are_rejected():
    op = _separation_op()
    result = op.run(None)
    graph = result.quotient.graph
    # the one-vertex graph is an action of the amalgam, but every order is 1
    result.quotient.graph = action_graph.ActionGraph(graph.basis, 1,
                                                    tuple((0,) for _ in graph.perms))
    with pytest.raises(ops.WrongAnswer):
        op.check(result)


def _traced_pass(prepared):
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        r = run.Run(prepared, run.Speed(), tracer)
        passes = r.loop(0)
    finally:
        uninstall()
    assert r.correct and passes == 1
    return r, tracer


def test_exact_counts_repeat_across_runs():
    data = gen.generate("build", 3)
    cheap = [spec for spec in data["ops"] if spec["kind"] != "exact" or spec["n"] < 16]
    refusals = [dict(op, as_written=True) for op in gen.KNOWN_REFUSALS]
    cheap = [spec for spec in cheap if {k: v for k, v in spec.items() if k != "id"} not in refusals]
    env = _env()
    first_run, first = _traced_pass([ops.prepare(s, env) for s in cheap])
    second_run, second = _traced_pass([ops.prepare(s, env) for s in cheap])
    assert first_run.pass_vertices == second_run.pass_vertices > 0
    assert first_run.pass_units == second_run.pass_units > 0
    assert first.calls == second.calls
    assert first.units == second.units
    assert first.calls["words.Word.constructions"] > 0


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "build",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
