"""ordsep benchmark: one seeded workload, one sequential client, one process.

    python3 perfbench/run.py --workload sep-scan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --baseline

The run generates its inputs from the seed, times a closed loop of whole
passes over them until ``--seconds`` seconds of operation time have passed,
checks every output outside the timed region, prints each metric by name and
unit, and ends with one JSON line.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones.  A wrong answer exits 1.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 15
TAIL_PERCENTILE = 75
CLI_PROBES = 5

# Typical seconds of reference_work() on the machine the bounds were set on
# (a 2-core shared VM).  Every reported time is scaled by REFERENCE_S over
# the run's mean reference time, so that drift in the machine's speed
# between runs does not read as a change of the program.
REFERENCE_S = 0.0016
# Typical seconds of setup_probe.REFERENCE_MODULES' import on the same
# machine.  Set-up time is scaled by REFERENCE_IMPORT_S over the reference
# import time of the same probe process, not by the run's factor: import
# work follows the machine's speed changes differently from reference_work()
# (scaled by the factor, ten-run set-up spreads reached 0.18; scaled by the
# reference import, they stayed under 0.04).
REFERENCE_IMPORT_S = 0.08


def reference_work():
    """Fixed pure-Python work that uses no ordsep code."""
    table = {}
    keys = []
    for i in range(4000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        keys.append(key)
    return sorted(table)[0], len(keys)


class Speed:
    """Reference timings taken between operations, outside timed regions."""

    def __init__(self):
        self.samples = []

    def sample(self):
        """Collect garbage, then time three reference loops with the
        collector off, so that the reference sees the CPU and not the heap."""
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                t0 = time.perf_counter()
                reference_work()
                self.samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()

    def factor(self):
        """REFERENCE_S over the 10%-trimmed mean reference time.  The box
        switches between a fast and a slow mode every second or so; a mean
        follows the mix of modes where a median would jump between them."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        kept = ordered[cut:len(ordered) - cut]
        return REFERENCE_S / (sum(kept) / len(kept))


QUANTILE_STEPS = 200  # midpoint-rule steps per order statistic's Beta weight


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics.  Runs hold 20 to 100 operations
    of mixed cost, where a single order statistic jumps between neighbours
    that are 15% apart; the weighted mean moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):
        h = 1 / (n * QUANTILE_STEPS)
        xs = (i / n + (k + 0.5) * h for k in range(QUANTILE_STEPS))
        weights.append(h * sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
                               for x in xs))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def _child(args, stdin=None):
    proc = subprocess.run(args, input=stdin, capture_output=True, text=True, cwd=ROOT,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[1]} failed: {proc.stderr[-2000:]}")
    return proc.stdout


def generate_inputs(workload, seed):
    """Ops from the seed (in a child process), plus the files they name."""
    import gen

    data = json.loads(_child([sys.executable, str(HERE / "gen.py"), workload, str(seed)]))
    data["presentations"] = gen.PRESENTATIONS
    data["files"] = {}
    if workload == "cli":
        from ordsep import action_graph, surgery, words

        OUT.mkdir(exist_ok=True)
        pres_file = OUT / "presentation-P1.json"
        pres_file.write_text(json.dumps(gen.PRESENTATIONS["P1"]))
        quotient = surgery.exact_order_quotient(
            words.parse_word("x y^-1", words.Basis(("x", "y"))), 6)
        graph_file = OUT / "graph.json"
        graph_file.write_text(action_graph.dumps(action_graph.quotient_to_json(quotient)))
        data["files"] = {"{P1}": str(pres_file), "{GRAPH}": str(graph_file)}
    return data


class SetupProbes:
    """Set-up times of fresh processes (import ordsep, then parse the
    inputs), each with the same process's reference import time, taken
    between operations and spread over the whole run.  The machine's speed
    changes over seconds to minutes; probes taken back to back see only the
    moment they ran in, probes spread over the run see the same mix of
    speeds as the operations do."""

    def __init__(self, data):
        self.text = json.dumps(data)
        self.times = []  # (set-up seconds, reference import seconds)

    def due(self, share):
        """Probe until ``share`` of the run's probes have been taken."""
        while len(self.times) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * share)):
            out = _child([sys.executable, str(HERE / "setup_probe.py")], self.text)
            self.times.append(tuple(map(float, out.split())))

    def seconds(self):
        """Median set-up seconds at the reference import speed."""
        return statistics.median(s / r for s, r in self.times) * REFERENCE_IMPORT_S


def _process_start_s(code, env):
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, env=env, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    """One closed-loop pass sequence over the prepared ops."""

    def __init__(self, ops_list, speed, tracer=None, setup=None):
        self.ops = ops_list
        self.speed = speed
        self.tracer = tracer
        self.setup = setup
        self.latencies = []
        self.failed = 0
        self.correct = True
        self.pass_units = 0  # budget units of the first pass
        self.pass_vertices = 0
        self.pass_refusals = 0
        self.bases_accepted = 0
        self.stdout_bytes = 0
        self.dump_s = 0.0

    def one(self, op, index, first_pass):
        import ops
        from ordsep.budget import Budget

        self.speed.sample()  # also leaves every op the same collector state
        budget = Budget()
        if self.tracer:
            self.tracer.begin_op(index)
        try:
            seconds, outcome = ops.execute(op, budget)
        except Exception:  # an op must answer or refuse; anything else is a defect
            if self.tracer:
                self.tracer.end_op(0.0)
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.correct = False
            return
        if self.tracer:
            self.tracer.end_op(seconds)
        self.latencies.append(seconds)
        vertices = 0
        units = budget.used
        if not outcome.refusal:
            try:
                vertices = op.check(outcome.result)
            except ops.WrongAnswer as err:
                print(f"WRONG ANSWER: {err}", file=sys.stderr)
                self.correct = False
            units += op.first.get("units", 0)
            self._observe(op, outcome.result)
        if first_pass:
            self.pass_units += units
            self.pass_vertices += vertices
            self.pass_refusals += bool(outcome.refusal)

    def _observe(self, op, result):
        """Per-layer facts read from the output, outside the timed region."""
        if not self.tracer:
            return
        log = getattr(result, "log", None)
        if log and any("at the base (" in line or "base with near-vertex-free" in line
                       for line in log):
            self.bases_accepted += 1
        stdout = getattr(result, "stdout", None)
        if stdout is not None:
            self.stdout_bytes += len(stdout)
            if op.spec.get("cmd") != "export-dot":
                from ordsep.action_graph import dumps

                data = json.loads(stdout)
                t0 = time.perf_counter()
                dumps(data)
                self.dump_s += time.perf_counter() - t0

    def loop(self, seconds):
        """Run whole passes over the ops until ``seconds`` of op time have
        passed, or one pass when an op went wrong; returns the number of
        passes."""
        passes = 0
        while passes == 0 or (self.correct and sum(self.latencies) < seconds):
            for index, op in enumerate(self.ops):
                if self.setup:
                    self.setup.due(sum(self.latencies) / seconds)
                self.one(op, index, passes == 0)
            passes += 1
        if self.setup:
            self.setup.due(1)
        return passes


def end_to_end(run, n_ops):
    lat = run.latencies
    return {
        "latency_p50_ms": (quantile(lat, 0.5) * 1e3, "ms"),
        f"latency_p{TAIL_PERCENTILE}_ms": (quantile(lat, TAIL_PERCENTILE / 100) * 1e3, "ms"),
        "throughput_ops_per_s": (len(lat) / sum(lat), "1/s"),
        "cert_share": ((n_ops - run.pass_refusals) / n_ops, "ratio"),
        "budget_units_total": (run.pass_units, "units"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _tag_metric(tag):
    return "budget.units." + tag.replace(" ", "_").replace("-", "_")


BUDGET_TAGS = [
    "abelian ladder graph", "balanced splice", "conjugacy scan", "cyclic candidate",
    "cyclic graph", "equalization splice", "glued graph", "gluing candidate",
    "p-action candidate", "prime power component", "product candidate",
    "separation candidate", "splice round", "unitriangular candidate",
    "unitriangular closure", "unitriangular order scan", "work",
]

CALLS_TOTAL = [
    "amalgam.conjugate_in_amalgam", "amalgam.matched_pair",
    "surgery.exact_order_quotient", "surgery.equalize_orders", "surgery.find_simple_quotient",
    "surgery.splice", "surgery.TruncatedUnitGroup.cayley_graph",
]
CALLS_SELF = [
    "amalgam.reduce_amalgam", "amalgam.syllable_membership",
    "amalgam_graph.glue_quotient", "amalgam_graph.PermGroup", "amalgam_graph.aag_product",
    "amalgam_graph.word_reps_near_free", "amalgam_graph.validate_amalgam_graph",
    "amalgam_graph.amalgam_splice",
    "action_graph.image_perm", "action_graph.element_order", "action_graph.validate",
    "action_graph.graph_disjoint_union",
]
COUNTS = ["words.Word.constructions", "words.reduce", "surgery.TruncatedUnitGroup.mult"]


def per_layer(run, tracer, passes, untraced_pass_s, cli_probe):
    out = {}
    for name in COUNTS:
        key = name if name.endswith("constructions") else f"{name}.calls"
        out[key] = (tracer.calls[name] / passes, "count")
    for name in CALLS_TOTAL + CALLS_SELF + ["amalgam_graph.separate_orders"]:
        out[f"{name}.calls"] = (tracer.calls[name] / passes, "count")
        if name in CALLS_TOTAL or name == "amalgam_graph.separate_orders":
            out[f"{name}.total_s"] = (tracer.total_s[name] / passes, "s")
        if name in CALLS_SELF or name == "amalgam_graph.separate_orders":
            out[f"{name}.self_s"] = (tracer.self_s[name] / passes, "s")
    tried = tracer.charges["gluing candidate"] + tracer.charges["product candidate"]
    out["amalgam_graph.base_accept_ratio"] = (run.bases_accepted / tried if tried else 0.0, "ratio")
    known = set(BUDGET_TAGS)
    for tag in BUDGET_TAGS:
        out[_tag_metric(tag)] = (tracer.units[tag] / passes, "units")
    other = sum(u for tag, u in tracer.units.items() if tag not in known)
    out["budget.units.other"] = (other / passes, "units")
    python_start, import_s = cli_probe
    out["cli.python_start_s"] = (python_start, "s")
    out["cli.import_s"] = (import_s, "s")
    out["cli.stdout_bytes"] = (run.stdout_bytes / passes, "bytes")
    out["cli.json_dump_s"] = (run.dump_s / passes, "s")
    op_s = sum(run.latencies)
    out["trace.unattributed_share"] = (tracer.root_self_s / op_s, "ratio")
    out["trace.overhead_share"] = (op_s / passes / untraced_pass_s - 1, "ratio")
    out["trace.spans_dropped"] = (tracer.dropped, "count")
    out["run.cert_vertices_total"] = (run.pass_vertices, "vertices")
    out["run.fail_share"] = (run.pass_refusals / len(run.ops), "ratio")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["sep-scan", "conj-yes", "build", "cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="print the ROADMAP baseline rows instead of a workload run")
    args = parser.parse_args(argv)
    if not args.baseline and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "ordsep" / "__init__.py").is_file():
        print(f"ordsep sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.baseline:
        import baseline

        return baseline.main()

    data = generate_inputs(args.workload, args.seed)
    speed = Speed()
    import ops

    env = ops.make_env(str(ROOT), data["presentations"], data["files"])
    prepared = [ops.prepare(spec, env) for spec in data["ops"]]
    n_ops = len(prepared)

    setup = None
    if args.trace:
        import spans

        warm = Run(prepared, speed)
        warm.loop(0)
        cli_probe = (0.0, 0.0)
        if args.workload == "cli":
            start = _process_start_s("pass", env["cli_env"])
            cli_probe = (start, _process_start_s("import ordsep.cli", env["cli_env"]) - start)
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            run = Run(prepared, speed, tracer)
            passes = run.loop(args.seconds)
        finally:
            uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = per_layer(run, tracer, passes, sum(warm.latencies), cli_probe)
        correct = run.correct and warm.correct
        failed = run.failed + warm.failed
        attempted = len(run.latencies) + len(warm.latencies) + failed
        shown = {}
    else:
        setup = SetupProbes(data)
        run = Run(prepared, speed, setup=setup)
        run.loop(args.seconds)
        metrics = end_to_end(run, n_ops)
        correct, failed = run.correct, run.failed
        attempted = len(run.latencies) + failed
        # these can read 0, so they are printed for reading but not reported
        shown = {"fail_share": (run.pass_refusals / n_ops, "ratio"),
                 "cert_vertices_total": (run.pass_vertices, "vertices")}

    factor = speed.factor()
    OUT.mkdir(exist_ok=True)
    (OUT / f"latencies-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"factor": factor, "latencies": run.latencies,
                    "reference": speed.samples, "setup": setup.times if setup else []}))
    metrics = {name: (_at_reference_speed(value, unit, factor), unit)
               for name, (value, unit) in metrics.items()}
    if setup:
        metrics = {"setup_s": (setup.seconds(), "s"), **metrics}
    print(f"workload {args.workload}  seed {args.seed}  ops/pass {n_ops}  "
          f"ops run {len(run.latencies)}  refusals/pass {run.pass_refusals}  "
          f"speed factor {factor:.4f} (times below but setup_s are raw times x factor)")
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _at_reference_speed(value, unit, factor):
    if unit in ("s", "ms"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


if __name__ == "__main__":
    sys.exit(main())
