"""Seeded inputs for the benchmark workloads.

``generate(workload, seed)`` returns a JSON-serialisable dict whose ``ops``
list is everything the timed loop runs; the same seed gives the same ops.

Each workload draws one base op list from a fixed stream, so that every seed
carries the same mix of cases.  The seed then picks, per drawn op, a
length-preserving automorphism to apply to its words, and the order of the
ops.  The automorphisms invert generators (and, for a = x y, b = s t s, swap
x with y^-1); each maps the amalgamated subgroup onto itself, so conjugacy
and oracle separability carry over.  What the engines do with a mapped op
does not: its budget units and run time can change, and a separation can
change between a certificate and a refusal.  So the named cases (the
acceptance catalogs, the 6-syllable pair, the known refusals) and the
factor-element separations of ``build``, one of which is refused under two of
the four maps, run as written (``as_written``), and the copies of ``build``'s
construction ops take each map in turn (``map_index``); the refusal count is
then the same for every seed, while the budget units of ``sep-scan`` still
move by about 2% between seeds.

Separation pairs for ``sep-scan`` are admitted only when the brute-force
oracle finds a hom into Sym(n), n <= 4, giving the two words different image
orders: that proves the pair is neither conjugate nor inverse-conjugate.

Run as a script (``python3 perfbench/gen.py WORKLOAD SEED``) it prints the
dict as JSON; the benchmark does that in a child process so that the
oracle's numpy buffers stay out of the workload process's peak RSS.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PRESENTATIONS = {
    "P1": {"basis_A": ["x", "y"], "basis_B": ["s", "t"], "a": "x", "b": "s"},
    "P2": {"basis_A": ["x", "y"], "basis_B": ["s", "t"], "a": "x y", "b": "s t s"},
}

# syllables outside the amalgamated subgroup, short enough that the
# conjugacy precheck stays within a few seconds per pair
SYLLABLES = {
    "P1": {"A": ["y", "y y", "y^-1", "x y", "y x^-1"],
           "B": ["t", "t t", "t^-1", "s t", "t s^-1"]},
    "P2": {"A": ["y", "y y", "y^-1", "x x"],
           "B": ["t", "t t", "t^-1", "s s"]},
}

# acceptance separation catalog (tests/test_acceptance.py), presentation P1
SEPARATION_CATALOG = [
    ("A:{y} B:{t}", "1"),
    ("A:{y}", "A:{y y}"),
    ("A:{y}", "B:{t}"),
    ("A:{y} B:{t}", "A:{y} B:{t^-1}"),
    ("A:{y} B:{t}", "A:{y y} B:{t}"),
    ("A:{y} B:{t} A:{y y} B:{t}", "A:{y} B:{t} A:{y y} B:{t^-1}"),
]
SIX_SYLLABLE_PAIR = (
    "A:{y} B:{t} A:{y y} B:{t} A:{y} B:{t t}",
    "A:{y} B:{t} A:{y y} B:{t} A:{y} B:{t^-1}",
)

# acceptance conjugate controls (criterion 8), presentation P1; the last
# pair is conjugate up to inversion, so its op asks about u and v^-1
CONJUGATE_CONTROLS = [
    ("A:{y} B:{t} A:{y y} B:{t}", "A:{y y} B:{t} A:{y} B:{t}", False),
    ("A:{y} B:{t}", "B:{t} A:{y}", False),
    ("A:{y} B:{t}", "A:{x^-1 y} B:{t s}", False),
    ("A:{y}", "A:{x y x^-1}", False),
    ("A:{y} B:{t}", "A:{y^-1} B:{t^-1}", True),
]

# acceptance equalization catalog (criterion 3) and wider cases: the two of
# EQUALIZE_WIDE build quotients of 256 and 8192 vertices
EQUALIZE_CATALOG = [
    (["x"], "y", 2, 4),
    (["x", "y"], "x y", 2, 4),
    (["x", "y", "x y^-1"], "x y y", 3, 4),
    (["x"], "y", 2, 64),
]
EQUALIZE_WIDE = [
    (["x y", "x y^-1"], "x", 2, 4),
    (["x", "y"], "x y", 2, 64),
]
EQUALIZE_REFUSAL = (["x y", "x y^-1"], "x", 2, 64)  # ends in BUDGET_EXCEEDED today

# The 10-40 ms construction ops of ``build`` (unequal-count separations and
# EQUALIZE_WIDE) appear this many times per pass, twice under each of the
# four automorphisms (``map_index``).  Then the pass has more of them than of
# the faster and the slower ops together, and both the median and the 75th
# percentile fall inside that group rather than on a gap between cost
# groups, where they jumped by 18% between runs.  The copies are not mapped
# at random: [x y, x y^-1] vs x takes 40 ms under three maps and 60 ms under
# x -> x^-1, and a random number of slow copies moved the 75th percentile by
# up to 25% from seed to seed.
MID_COPIES = 8

COMMUTATOR_WORDS = ["x y x^-1 y^-1", "x y^-1 x^-1 y", "x^-1 y x y^-1", "y x y^-1 x^-1"]

# operations that end in BUDGET_EXCEEDED today; kept so the refusal share
# can fall when the engines improve
KNOWN_REFUSALS = [
    {"kind": "exact", "word": "x y x^-1 y^-1", "n": 32},
    {"kind": "equalize", "us": ["x", "y"], "v": "x y", "p": 2, "N": 256},
    {"kind": "separate", "pres": "P1", "u": "A:{y x^-1} B:{t}", "v": "A:{y} B:{s t}"},
    {"kind": "separate", "pres": "P2", "u": "A:{y}", "v": "B:{t}"},
]


def _random_amalgam_text(rng, pres_name, syllables):
    """Alternating syllables from the pools, starting on the A side."""
    pools = SYLLABLES[pres_name]
    sides = "AB"
    return " ".join(
        f"{sides[i % 2]}:{{{rng.choice(pools[sides[i % 2]])}}}" for i in range(syllables)
    )


def _presentation(name):
    from ordsep.amalgam import presentation_from_json

    return presentation_from_json(PRESENTATIONS[name])


def _separation_pairs(rng, pres_name, syllables, count):
    """Oracle-admitted alternating pairs with equal reduced syllable counts."""
    from ordsep.amalgam import amalgam_word_to_text, parse_amalgam_word, reduce_amalgam
    from ordsep.oracle import oracle_separate

    pres = _presentation(pres_name)
    out = []
    while len(out) < count:
        u = reduce_amalgam(parse_amalgam_word(_random_amalgam_text(rng, pres_name, syllables), pres), pres)
        v = reduce_amalgam(parse_amalgam_word(_random_amalgam_text(rng, pres_name, syllables), pres), pres)
        if len(u.syllables) != syllables or len(v.syllables) != syllables or u == v:
            continue
        if oracle_separate(u, v, pres, 4) is None:
            continue
        out.append({"kind": "separate", "pres": pres_name,
                    "u": amalgam_word_to_text(u), "v": amalgam_word_to_text(v)})
    return out


def _conjugate_pairs(rng, pres_name, count, draws=None):
    """u and v = g^-1 u g with the generator of the randomized conjugacy test.
    With ``draws`` it stops after that many draws, as the test does, even if
    fewer than ``count`` pairs were kept."""
    from ordsep.amalgam import amalgam_word_to_text, parse_amalgam_word, reduce_amalgam

    pres = _presentation(pres_name)
    out = []
    drawn = 0
    while len(out) < count and (draws is None or drawn < draws):
        drawn += 1
        u = parse_amalgam_word(_random_amalgam_text(rng, pres_name, rng.choice((2, 4))), pres)
        g = parse_amalgam_word(_random_amalgam_text(rng, pres_name, rng.randrange(1, 4)), pres)
        if len(reduce_amalgam(u, pres).syllables) < 2:
            continue
        v = reduce_amalgam(g.inverse() * u * g, pres)
        out.append({"kind": "conjugate", "pres": pres_name,
                    "u": amalgam_word_to_text(u), "v": amalgam_word_to_text(v)})
    return out


def _sep_scan(rng):
    ops = [{"kind": "separate", "pres": "P1", "u": u, "v": v, "as_written": True}
           for u, v in SEPARATION_CATALOG + [SIX_SYLLABLE_PAIR]]
    for pres_name, syllables, count in (("P1", 2, 6), ("P1", 4, 4), ("P2", 2, 6)):
        ops += _separation_pairs(rng, pres_name, syllables, count)
    return ops


def _conj_yes(rng):
    ops = [{"kind": "conjugate", "pres": "P1", "u": u, "v": v, "inverse": inverse,
            "as_written": True}
           for u, v, inverse in CONJUGATE_CONTROLS]
    return ops + _conjugate_pairs(rng, "P1", 20) + _conjugate_pairs(rng, "P2", 15)


def _random_free_word(rng, length):
    letters = []
    while len(letters) < length:
        cand = (rng.choice("xy"), rng.choice((1, -1)))
        if letters and letters[-1][0] == cand[0] and letters[-1][1] == -cand[1]:
            continue
        letters.append(cand)
    return " ".join(n if s > 0 else f"{n}^-1" for n, s in letters)


def _build(rng):
    # separations the precheck leaves early: unequal syllable counts,
    # factor elements, trivial v
    mid = [{"kind": "separate", "pres": "P1", "u": _random_amalgam_text(rng, "P1", 2),
            "v": _random_amalgam_text(rng, "P1", 4)} for _ in range(4)]
    ops = []
    # as written: B:{s t} vs B:{t s^-1} is refused, two of its images are not
    for side_u, side_v in (("A", "A"), ("A", "B"), ("B", "B")):
        pool_u, pool_v = SYLLABLES["P1"][side_u], SYLLABLES["P1"][side_v]
        u = rng.choice(pool_u)
        v = rng.choice([s for s in pool_v if (side_u, s) != (side_v, u)])
        ops.append({"kind": "separate", "pres": "P1",
                    "u": f"{side_u}:{{{u}}}", "v": f"{side_v}:{{{v}}}", "as_written": True})
    for _ in range(2):
        ops.append({"kind": "separate", "pres": "P1",
                    "u": _random_amalgam_text(rng, "P1", 2), "v": "1"})
    ops += [{"kind": "equalize", "us": us, "v": v, "p": p, "N": n, "as_written": True}
            for us, v, p, n in EQUALIZE_CATALOG + [EQUALIZE_REFUSAL]]
    mid += [{"kind": "equalize", "us": us, "v": v, "p": p, "N": n}
            for us, v, p, n in EQUALIZE_WIDE]
    ops += [dict(op, map_index=k % 4) for op in mid for k in range(MID_COPIES)]
    for n in (8, 9, 16, 27):
        ops.append({"kind": "exact", "word": rng.choice(COMMUTATOR_WORDS), "n": n})
    return ops + [dict(op, as_written=True) for op in KNOWN_REFUSALS]


def _cli(rng):
    word = _random_free_word(rng, 6)
    word += " " + _inverse_text(word.split()[-2:])
    u = _random_free_word(rng, 4)
    letters = u.split()
    r = rng.randrange(1, len(letters))
    us, eq_v, p, _ = rng.choice(EQUALIZE_CATALOG[:2])
    sep_u, sep_v = rng.choice(SEPARATION_CATALOG[:3])
    commands = [
        ("reduce", {"word": word}),
        ("conj", {"u": u, "v": " ".join(letters[r:] + letters[:r])}),
        ("amalgam-reduce", {"word": _random_amalgam_text(rng, "P1", 4)}),
        ("exact-order", {"word": rng.choice(["x y", "x x y", "x y^-1"]),
                         "n": rng.randrange(2, 13)}),
        ("equalize", {"us": us, "v": eq_v, "p": p, "N": 4}),
        ("separate", {"u": sep_u, "v": sep_v}),
        ("export-dot", {}),
    ]
    return [{"kind": "cli", "cmd": cmd, "args": args} for cmd, args in commands]


def _cli_argv(cmd, args):
    """Command line of one CLI op; ``{P1}`` and ``{GRAPH}`` name files the
    benchmark writes before the run."""
    if cmd in ("reduce", "exact-order"):
        return [cmd, args["word"]] + ([str(args["n"])] if "n" in args else [])
    if cmd == "conj":
        return [cmd, args["u"], args["v"]]
    if cmd == "amalgam-reduce":
        return [cmd, "--presentation", "{P1}", args["word"]]
    if cmd == "equalize":
        return ["--prime", str(args["p"]), cmd, *args["us"], "--v", args["v"],
                "-N", str(args["N"])]
    if cmd == "separate":
        return [cmd, "--presentation", "{P1}", args["u"], args["v"]]
    return [cmd, "--presentation", "{P1}", "{GRAPH}"]


def _inverse_text(tokens):
    return " ".join(t[:-3] if t.endswith("^-1") else t + "^-1" for t in reversed(tokens))


WORKLOADS = {"sep-scan": _sep_scan, "conj-yes": _conj_yes, "build": _build, "cli": _cli}

# letter maps name -> (image name, sign); each extends to an automorphism of
# the free group that preserves word length
FREE_MAPS = [
    {},
    {"x": ("x", -1)},
    {"y": ("y", -1)},
    {"x": ("y", 1), "y": ("x", 1)},
]
# amalgam maps must send a to a^+-1 and b to b^+-1 with the same sign
AMALGAM_MAPS = {
    "P1": [{}, {"y": ("y", -1)}, {"t": ("t", -1)},
           {"x": ("x", -1), "s": ("s", -1), "y": ("y", -1)}],
    "P2": [{}, {"x": ("y", -1), "y": ("x", -1), "s": ("s", -1), "t": ("t", -1)}],
}


def _map_word(text, mapping):
    def letter(token):
        name, _, exp = token.partition("^")
        image, sign = mapping.get(name, (name, 1))
        sign *= -1 if exp == "-1" else 1
        return image if sign > 0 else f"{image}^-1"

    if text.strip() == "1":
        return text
    return " ".join(letter(t) for t in text.split())


def _map_amalgam(text, mapping):
    return re.sub(r"\{([^{}]*)\}", lambda m: "{" + _map_word(m.group(1), mapping) + "}", text)


def _pick_map(maps, op, rng):
    return maps[op["map_index"]] if "map_index" in op else rng.choice(maps)


def _map_op(op, rng):
    if op.get("as_written"):
        return op
    if op["kind"] == "cli":
        free, amalgam = rng.choice(FREE_MAPS), rng.choice(AMALGAM_MAPS["P1"])
        args = dict(op["args"])
        for key in ("word", "u", "v"):
            if key in args:
                mapped = _map_amalgam if op["cmd"] in ("amalgam-reduce", "separate") else _map_word
                args[key] = mapped(args[key], amalgam if mapped is _map_amalgam else free)
        if "us" in args:
            args["us"] = [_map_word(u, free) for u in args["us"]]
        return dict(op, args=args, argv=_cli_argv(op["cmd"], args))
    if "pres" in op:
        mapping = _pick_map(AMALGAM_MAPS[op["pres"]], op, rng)
        return dict(op, u=_map_amalgam(op["u"], mapping), v=_map_amalgam(op["v"], mapping))
    mapping = _pick_map(FREE_MAPS, op, rng)
    if op["kind"] == "exact":
        return dict(op, word=_map_word(op["word"], mapping))
    if op["kind"] == "equalize":
        return dict(op, us=[_map_word(u, mapping) for u in op["us"]],
                    v=_map_word(op["v"], mapping))
    return op


def generate(workload, seed):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    ops = WORKLOADS[workload](random.Random(f"{workload}/base"))
    rng = random.Random(f"{workload}/{seed}")
    ops = [_map_op(op, rng) for op in ops]
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return {"workload": workload, "seed": seed, "ops": ops}


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(generate(sys.argv[1], int(sys.argv[2]))))
