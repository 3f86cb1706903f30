"""Command-line front end.

Deterministic by construction: identical inputs and flags produce identical
bytes.  Exit codes: 0 success, 2 precondition violation, 3 budget exceeded,
4 undecided conjugacy, 64 usage errors.
"""

from __future__ import annotations

import json
import sys

import click

from . import action_graph as ag
from . import amalgam as am
from . import amalgam_graph as agraph
from . import oracle as orc
from . import surgery as sg
from . import words as wd
from .budget import Budget
from .errors import (
    EXIT_USAGE,
    OrdsepError,
    exit_code_for,
)


def _read_arg(value: str) -> str:
    if value == "-":
        return sys.stdin.read().strip()
    return value


def _basis(text: str) -> wd.Basis:
    return wd.Basis(tuple(name.strip() for name in text.split(",") if name.strip()))


def _emit(ctx, text_lines, data):
    if ctx.obj["format"] == "json":
        click.echo(ag.dumps(data), nl=False)
    else:
        for line in text_lines:
            click.echo(line)


def _load_presentation(path: str) -> am.AmalgamPresentation:
    with open(path) as handle:
        return am.presentation_from_json(json.load(handle))


def _budget(ctx) -> Budget:
    return Budget(ctx.obj["budget"])


@click.group()
@click.option("--budget", type=int, default=2_000_000, show_default=True,
              help="work cap: vertices created plus candidates tested")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text",
              show_default=True)
@click.option("--prime", type=int, default=None, help="default prime for searches")
@click.pass_context
def cli(ctx, budget, fmt, prime):
    """Finite quotients separating element orders in free groups and amalgams."""
    ctx.obj = {"budget": budget, "format": fmt, "prime": prime}


@cli.command()
@click.option("--basis", default="x,y", show_default=True)
@click.argument("word")
@click.pass_context
def reduce(ctx, basis, word):
    """Freely reduce a word."""
    b = _basis(basis)
    out = wd.reduce(wd.parse_word(_read_arg(word), b))
    _emit(ctx, [wd.word_to_text(out)], {"word": wd.word_to_text(out)})


@cli.command()
@click.option("--basis", default="x,y", show_default=True)
@click.argument("u")
@click.argument("v")
@click.pass_context
def conj(ctx, basis, u, v):
    """Conjugacy in the free group; prints a witness when one exists."""
    b = _basis(basis)
    witness = wd.conjugate_in_free(
        wd.parse_word(_read_arg(u), b), wd.parse_word(_read_arg(v), b)
    )
    if witness is None:
        _emit(ctx, ["none"], {"conjugate": False, "witness": None})
    else:
        text = wd.word_to_text(witness)
        _emit(ctx, [text], {"conjugate": True, "witness": text})


@cli.command()
@click.option("--basis", default="x,y", show_default=True)
@click.argument("word")
@click.pass_context
def root(ctx, basis, word):
    """Primitive root and exponent."""
    b = _basis(basis)
    r, e = wd.primitive_root(wd.parse_word(_read_arg(word), b))
    _emit(ctx, [wd.word_to_text(r), str(e)], {"root": wd.word_to_text(r), "exponent": e})


@cli.command()
@click.option("--basis", default="x,y", show_default=True)
@click.argument("u")
@click.argument("v")
@click.pass_context
def commensurable(ctx, basis, u, v):
    """Do the words lie in conjugate cyclic subgroups?"""
    b = _basis(basis)
    answer = wd.commensurable(
        wd.parse_word(_read_arg(u), b), wd.parse_word(_read_arg(v), b)
    )
    _emit(ctx, ["true" if answer else "false"], {"commensurable": answer})


@cli.command("simple-quotient")
@click.option("--basis", default="x,y", show_default=True)
@click.option("--near", "near", type=int, default=0, show_default=True,
              help="forbid l-near vertices up to this level")
@click.option("--min-order", type=int, default=1, show_default=True)
@click.argument("words", nargs=-1, required=True)
@click.pass_context
def simple_quotient(ctx, basis, near, min_order, words):
    """Quotient onto a p-group whose cycles for the words have no near vertices."""
    b = _basis(basis)
    p = ctx.obj["prime"] or 2
    quotient = sg.find_simple_quotient(
        [wd.parse_word(_read_arg(w), b) for w in words],
        p,
        near,
        _budget(ctx),
        min_order=min_order,
    )
    data = ag.quotient_to_json(quotient)
    _emit(ctx, [ag.dumps(data).rstrip("\n")], data)


@cli.command()
@click.option("--basis", default="x,y", show_default=True)
@click.option("-N", "floor", type=int, default=1, show_default=True,
              help="final equalized order must exceed this")
@click.option("--v", "v_text", required=True, help="the word kept strictly below")
@click.argument("us", nargs=-1, required=True)
@click.pass_context
def equalize(ctx, basis, floor, v_text, us):
    """Equalize the orders of the given words above the order of --v."""
    b = _basis(basis)
    p = ctx.obj["prime"] or 2
    report = sg.equalize_orders(
        [wd.parse_word(_read_arg(u), b) for u in us],
        wd.parse_word(_read_arg(v_text), b),
        p,
        floor,
        _budget(ctx),
    )
    data = {
        "quotient": ag.quotient_to_json(report.quotient),
        "rounds": report.rounds,
        "orders": report.orders,
        "shared_path_lengths": report.shared_path_lengths,
    }
    text = [f"{w}: {o}" for w, o in sorted(report.orders.items())]
    text.append(f"rounds: {report.rounds}")
    _emit(ctx, text, data)


@cli.command("exact-order")
@click.option("--basis", default="x,y", show_default=True)
@click.argument("word")
@click.argument("order", type=int)
@click.pass_context
def exact_order(ctx, basis, word, order):
    """Quotient giving the word image order exactly n."""
    b = _basis(basis)
    quotient = sg.exact_order_quotient(
        wd.parse_word(_read_arg(word), b), order, _budget(ctx)
    )
    data = ag.quotient_to_json(quotient)
    _emit(ctx, [ag.dumps(data).rstrip("\n")], data)


@cli.command("amalgam-reduce")
@click.option("--presentation", "pres_path", required=True, type=click.Path(exists=True))
@click.argument("word")
@click.pass_context
def amalgam_reduce(ctx, pres_path, word):
    """Normal form of an amalgam word."""
    pres = _load_presentation(pres_path)
    out = am.reduce_amalgam(am.parse_amalgam_word(_read_arg(word), pres), pres)
    text = am.amalgam_word_to_text(out)
    _emit(ctx, [text], {"word": text})


@cli.command("amalgam-conj")
@click.option("--presentation", "pres_path", required=True, type=click.Path(exists=True))
@click.argument("u")
@click.argument("v")
@click.pass_context
def amalgam_conj(ctx, pres_path, u, v):
    """Bounded conjugacy check in the amalgam: yes, no, or unknown."""
    pres = _load_presentation(pres_path)
    res = am.conjugate_in_amalgam(
        am.parse_amalgam_word(_read_arg(u), pres),
        am.parse_amalgam_word(_read_arg(v), pres),
        pres,
        _budget(ctx),
    )
    witness = am.amalgam_word_to_text(res.witness) if res.witness is not None else None
    lines = [res.status] + ([witness] if witness is not None else [])
    _emit(ctx, lines, {"status": res.status, "witness": witness})


@cli.command("delta-sets")
@click.option("--presentation", "pres_path", required=True, type=click.Path(exists=True))
@click.argument("u")
@click.argument("v")
@click.pass_context
def delta_sets_cmd(ctx, pres_path, u, v):
    """The factor subsets controlling coset collisions of the two words."""
    pres = _load_presentation(pres_path)
    da, db = am.delta_sets(
        am.parse_amalgam_word(_read_arg(u), pres),
        am.parse_amalgam_word(_read_arg(v), pres),
        pres,
    )
    data = {
        "delta_A": [wd.word_to_text(x) for x in da],
        "delta_B": [wd.word_to_text(x) for x in db],
    }
    _emit(ctx, ["A: " + ", ".join(data["delta_A"]), "B: " + ", ".join(data["delta_B"])], data)


@cli.command("matched-pair")
@click.option("--presentation", "pres_path", required=True, type=click.Path(exists=True))
@click.argument("u")
@click.argument("v")
@click.pass_context
def matched_pair_cmd(ctx, pres_path, u, v):
    """Factor quotients with matching subgroup orders separating the deltas."""
    pres = _load_presentation(pres_path)
    p = ctx.obj["prime"] or agraph.smallest_admissible_prime(pres)
    phi, psi = am.matched_pair(
        am.parse_amalgam_word(_read_arg(u), pres),
        am.parse_amalgam_word(_read_arg(v), pres),
        pres,
        p,
        _budget(ctx),
    )
    data = {"phi": ag.quotient_to_json(phi), "psi": ag.quotient_to_json(psi)}
    _emit(ctx, [ag.dumps(data).rstrip("\n")], data)


@cli.command()
@click.option("--presentation", "pres_path", required=True, type=click.Path(exists=True))
@click.option("--quot-a", "qa_path", required=True, type=click.Path(exists=True))
@click.option("--quot-b", "qb_path", required=True, type=click.Path(exists=True))
@click.pass_context
def glue(ctx, pres_path, qa_path, qb_path):
    """Glue two factor quotients into an amalgam action graph."""
    pres = _load_presentation(pres_path)
    with open(qa_path) as h:
        qa = ag.quotient_from_json(json.load(h))
    with open(qb_path) as h:
        qb = ag.quotient_from_json(json.load(h))
    pair = agraph.factor_pair(pres, qa, qb)
    aag = agraph.glue_quotient(pres, *pair, agraph.canonical_gluing(*pair), _budget(ctx))
    data = agraph.aag_to_json(aag)
    _emit(ctx, [ag.dumps(data).rstrip("\n")], data)


@cli.command("amalgam-splice")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True),
              help="amalgam action graph JSON, as emitted by glue")
@click.argument("u")
@click.argument("rep_start", type=int)
@click.argument("position", type=int)
@click.argument("copies", type=int)
@click.pass_context
def amalgam_splice_cmd(ctx, graph_path, u, rep_start, position, copies):
    """Cyclic cover cut along one subgroup orbit of the representative."""
    with open(graph_path) as h:
        aag = agraph.aag_from_json(json.load(h))
    word = am.parse_amalgam_word(_read_arg(u), aag.pres)
    out = agraph.amalgam_splice(aag, word, rep_start, position, copies)
    data = agraph.aag_to_json(out)
    _emit(ctx, [ag.dumps(data).rstrip("\n")], data)


@cli.command()
@click.option("--presentation", "pres_path", required=True, type=click.Path(exists=True))
@click.argument("u")
@click.argument("v")
@click.pass_context
def separate(ctx, pres_path, u, v):
    """Finite quotient of the amalgam giving the two words different orders."""
    pres = _load_presentation(pres_path)
    result = agraph.separate_orders(
        am.parse_amalgam_word(_read_arg(u), pres),
        am.parse_amalgam_word(_read_arg(v), pres),
        pres,
        _budget(ctx),
    )
    data = {
        "graph": ag.graph_to_json(result.quotient.graph),
        "orders": dict(sorted(result.quotient.witness_orders.items())),
        "log": result.log,
    }
    text = [f"{w}: {o}" for w, o in sorted(result.quotient.witness_orders.items())]
    _emit(ctx, text, data)


@cli.command()
@click.option("--basis", default=None, help="free-group mode: comma-separated generators")
@click.option("--presentation", "pres_path", default=None, type=click.Path(exists=True))
@click.option("--nmax", type=int, default=5, show_default=True)
@click.argument("u")
@click.argument("v")
@click.pass_context
def oracle(ctx, basis, pres_path, nmax, u, v):
    """Exhaustive search for a small hom separating the orders."""
    if pres_path:
        pres = _load_presentation(pres_path)
        target = pres
        uu = am.parse_amalgam_word(_read_arg(u), pres)
        vv = am.parse_amalgam_word(_read_arg(v), pres)
        names = am.union_basis(pres).names
    else:
        b = _basis(basis or "x,y")
        target = b
        uu = wd.parse_word(_read_arg(u), b)
        vv = wd.parse_word(_read_arg(v), b)
        names = b.names
    found = orc.oracle_separate(uu, vv, target, nmax)
    if found is None:
        _emit(ctx, ["none"], {"found": False})
        return
    n, hom = found
    data = {
        "found": True,
        "degree": n,
        "hom": {name: list(hom[name]) for name in names},
    }
    _emit(ctx, [f"degree {n}"] + [f"{k}: {list(v)}" for k, v in sorted(data["hom"].items())], data)


@cli.command("export-dot")
@click.option("--presentation", "pres_path", default=None, type=click.Path(exists=True),
              help="color edges by factor when given")
@click.argument("graph_file", type=click.Path(exists=True))
@click.pass_context
def export_dot(ctx, pres_path, graph_file):
    """Graph JSON to DOT: one node per vertex, one edge per positive edge."""
    with open(graph_file) as h:
        data = json.load(h)
    graph = ag.graph_from_json(data.get("graph", data))
    factor_of = None
    if pres_path:
        pres = _load_presentation(pres_path)
        names_a = set(pres.basis_a.names)
        factor_of = lambda name: "A" if name in names_a else "B"
    click.echo(ag.graph_to_dot(graph, factor_of=factor_of), nl=False)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as err:
        click.echo(f"usage error: {err.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as err:
        err.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except OrdsepError as err:
        click.echo(f"error {err.code}: {err}", err=True)
        return exit_code_for(err)


if __name__ == "__main__":
    sys.exit(main())
