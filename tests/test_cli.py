import json

import pytest

from ordsep.action_graph import quotient_from_json
from ordsep.amalgam_graph import aag_from_json
from ordsep.cli import main


@pytest.fixture()
def pres_file(tmp_path):
    path = tmp_path / "pres.json"
    path.write_text(
        json.dumps(
            {"basis_A": ["x", "y"], "basis_B": ["s", "t"], "a": "x", "b": "s"}
        )
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "x x^-1 y")
    assert code == 0
    assert out == "y\n"


def test_reduce_json_deterministic(capsys):
    code, out1, _ = run(capsys, "--format", "json", "reduce", "x x^-1 y")
    code2, out2, _ = run(capsys, "--format", "json", "reduce", "x x^-1 y")
    assert code == code2 == 0
    assert out1 == out2 == '{\n  "word": "y"\n}\n'


def test_conj_and_root_and_commensurable(capsys):
    code, out, _ = run(capsys, "conj", "x y", "y x")
    assert code == 0 and out == "x\n"
    code, out, _ = run(capsys, "conj", "x", "y")
    assert code == 0 and out == "none\n"
    code, out, _ = run(capsys, "root", "x y x y")
    assert code == 0 and out == "x y\n2\n"
    code, out, _ = run(capsys, "commensurable", "x", "x^-1")
    assert code == 0 and out == "true\n"


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "reduce")
    assert code == 64
    assert "usage error" in err


def test_bad_word_is_precondition_exit(capsys):
    code, _, err = run(capsys, "root", "1")
    assert code == 2
    assert "EMPTY_WORD" in err


def test_exact_order_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "exact-order", "x y", "4")
    assert code == 0
    data = json.loads(out)
    assert data["witness_orders"] == {"x y": 4}
    assert data["graph"]["degree"] == 4


def test_simple_quotient_command(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "--prime", "3", "simple-quotient", "x y"
    )
    assert code == 0
    data = json.loads(out)
    assert set(data["graph"]["perms"]) == {"x", "y"}


def test_equalize_command(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "--prime", "2", "equalize", "x", "--v", "y", "-N", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["orders"]["x"] > data["orders"]["y"] > 1


def test_amalgam_commands(capsys, pres_file):
    code, out, _ = run(capsys, "amalgam-reduce", "--presentation", pres_file, "A:{x} B:{t}")
    assert code == 0 and out == "B:{s t}\n"

    code, out, _ = run(
        capsys, "amalgam-conj", "--presentation", pres_file, "A:{y} B:{t}", "B:{t} A:{y}"
    )
    assert code == 0
    assert out.splitlines()[0] == "yes"

    code, out, _ = run(
        capsys, "--format", "json", "delta-sets", "--presentation", pres_file,
        "A:{y} B:{t}", "A:{y y}",
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"delta_A": ["y", "y y"], "delta_B": ["t"]}


def test_matched_pair_command(capsys, pres_file):
    code, out, _ = run(
        capsys, "--format", "json", "matched-pair", "--presentation", pres_file,
        "A:{y} B:{t}", "A:{y y}",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"phi", "psi"}


def test_separate_command_and_conjugate_exit(capsys, pres_file):
    code, out, _ = run(
        capsys, "--format", "json", "separate", "--presentation", pres_file,
        "A:{y}", "A:{y y}",
    )
    assert code == 0
    data = json.loads(out)
    orders = list(data["orders"].values())
    assert orders[0] != orders[1]
    assert data["log"]

    code, _, err = run(
        capsys, "separate", "--presentation", pres_file, "A:{y} B:{t}", "B:{t} A:{y}"
    )
    assert code == 2
    assert "CONJUGATE_INPUTS" in err


def test_budget_exit_code(capsys):
    code, _, err = run(
        capsys, "--budget", "1", "--prime", "2", "simple-quotient", "--min-order", "64", "x y"
    )
    assert code == 3
    assert "BUDGET_EXCEEDED" in err


def test_small_budget_surfaces_as_undecided_conjugacy(capsys, pres_file):
    # the conjugacy precheck draws on the caller's budget, so it runs out
    # before any construction starts
    code, out, err = run(
        capsys, "--budget", "3", "separate", "--presentation", pres_file,
        "A:{y} B:{t}", "A:{y y} B:{t}",
    )
    assert code == 4
    assert out == ""
    assert "UNDECIDED_CONJUGACY" in err


def test_oracle_command(capsys, pres_file):
    code, out, _ = run(capsys, "--format", "json", "oracle", "--nmax", "3", "x", "y")
    assert code == 0
    data = json.loads(out)
    assert data["found"] is True and data["degree"] == 2

    code, out, _ = run(
        capsys, "--format", "json", "oracle", "--nmax", "2",
        "--presentation", pres_file, "A:{y} B:{t}", "B:{t} A:{y}",
    )
    assert code == 0
    assert json.loads(out) == {"found": False}


def test_glue_splice_round_trip(capsys, tmp_path, pres_file):
    code, qa_out, _ = run(capsys, "--format", "json", "exact-order", "x", "4")
    qa_path = tmp_path / "qa.json"
    qa_path.write_text(qa_out)
    code, qb_out, _ = run(
        capsys, "--format", "json", "exact-order", "--basis", "s,t", "s", "4"
    )
    qb_path = tmp_path / "qb.json"
    qb_path.write_text(qb_out)

    code, glued, _ = run(
        capsys, "--format", "json", "glue", "--presentation", pres_file,
        "--quot-a", str(qa_path), "--quot-b", str(qb_path),
    )
    assert code == 0
    data = json.loads(glued)
    assert data["graph"]["degree"] == 4
    graph_path = tmp_path / "aag.json"
    graph_path.write_text(glued)

    code, spliced, _ = run(
        capsys, "--format", "json", "amalgam-splice", "--graph", str(graph_path),
        "A:{x x x} B:{t}", "0", "0", "2",
    )
    # x^3 is a subgroup power, so the splice word is not alternating
    assert code == 2


def test_amalgam_splice_rejects_a_corrupted_graph_file(capsys, tmp_path, pres_file):
    paths = []
    for basis, gen in (("x,y", "x"), ("s,t", "s")):
        code, out, _ = run(capsys, "--format", "json", "exact-order", "--basis", basis, gen, "4")
        paths.append(tmp_path / f"{gen}.json")
        paths[-1].write_text(out)
    code, glued, _ = run(
        capsys, "--format", "json", "glue", "--presentation", pres_file,
        "--quot-a", str(paths[0]), "--quot-b", str(paths[1]),
    )
    data = json.loads(glued)
    data["a_elem"][-1] = 7
    graph_path = tmp_path / "bad.json"
    graph_path.write_text(json.dumps(data))
    code, _, err = run(
        capsys, "amalgam-splice", "--graph", str(graph_path), "A:{y} B:{t}", "0", "0", "2"
    )
    assert code == 2
    assert "NOT_FREE" in err


@pytest.mark.parametrize("basis_b", ["s", "t,s"])
def test_glue_rejects_a_quotient_over_another_basis(capsys, tmp_path, pres_file, basis_b):
    # the B basis is s, t: a quotient missing t, or listing it first, is refused
    paths = []
    for basis, gen in (("x,y", "x"), (basis_b, "s")):
        code, out, _ = run(capsys, "--format", "json", "exact-order", "--basis", basis, gen, "4")
        assert code == 0
        paths.append(tmp_path / f"{gen}.json")
        paths[-1].write_text(out)
    code, out, err = run(
        capsys, "--format", "json", "glue", "--presentation", pres_file,
        "--quot-a", str(paths[0]), "--quot-b", str(paths[1]),
    )
    assert code == 2
    assert out == ""
    assert "BASIS_MISMATCH" in err


def test_export_dot(capsys, tmp_path, pres_file):
    code, qa_out, _ = run(capsys, "--format", "json", "exact-order", "x", "3")
    path = tmp_path / "q.json"
    path.write_text(qa_out)
    code, dot, _ = run(capsys, "export-dot", str(path))
    assert code == 0
    assert dot.startswith("digraph")
    assert 'label="x"' in dot

    code, dot, _ = run(capsys, "export-dot", "--presentation", pres_file, str(path))
    assert code == 0
    assert 'factor="A"' in dot


def test_stdin_words(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("x x^-1 y"))
    code, out, _ = run(capsys, "reduce", "-")
    assert code == 0 and out == "y\n"


def test_emitted_quotients_load(capsys, tmp_path, pres_file):
    # loading recomputes every claimed witness order, so each quotient the
    # CLI writes must survive its own check
    def emitted(*argv):
        code, out, _ = run(capsys, "--format", "json", *argv)
        assert code == 0
        return json.loads(out)

    quotients = [
        emitted("exact-order", "x y", "4"),
        emitted("--prime", "3", "simple-quotient", "x y"),
        emitted("--prime", "2", "equalize", "x", "--v", "y", "-N", "2")["quotient"],
    ]
    pair = emitted("matched-pair", "--presentation", pres_file, "A:{y} B:{t}", "A:{y y}")
    quotients += [pair["phi"], pair["psi"]]
    for data in quotients:
        assert data["witness_orders"]
        assert quotient_from_json(data).check_witnesses()

    paths = []
    for name, data in (("qa", pair["phi"]), ("qb", pair["psi"])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    glued = emitted(
        "glue", "--presentation", pres_file, "--quot-a", paths[0], "--quot-b", paths[1]
    )
    aag_from_json(glued)
