"""Spans and counters around ordsep's public callables, installed from outside.

``install(tracer)`` wraps every public function and the listed methods of the
layer modules, and rebinds each wrapper at every module attribute that bound
the original (``reduce_amalgam`` lives in ``amalgam`` and is imported into
``amalgam_graph``, for example).  No file of the package changes.  Wrappers
record only while ``tracer.active`` is set, so output checks and the oracle
run untraced.

A span is (id, name, start, end, parent id, op id).  Self time is a span's
duration minus the time its child spans cover.  Hot leaf helpers are counted
but not timed; their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("words", "action_graph", "surgery", "amalgam", "amalgam_graph", "budget")

# called millions of times per run: a span each would dominate the run
COUNT_ONLY = {
    "words.reduce", "words.word_sort_key", "words.Word.constructions",
    "action_graph.compose", "action_graph.invert", "action_graph.identity_perm",
    "action_graph.perm_order", "surgery.TruncatedUnitGroup.mult",
}

# methods and constructors traced besides module-level functions:
# (module, class, attribute, metric name)
METHODS = [
    ("words", "Word", "__post_init__", "words.Word.constructions"),
    ("surgery", "TruncatedUnitGroup", "mult", "surgery.TruncatedUnitGroup.mult"),
    ("surgery", "TruncatedUnitGroup", "cayley_graph", "surgery.TruncatedUnitGroup.cayley_graph"),
    ("amalgam_graph", "PermGroup", "__init__", "amalgam_graph.PermGroup"),
]

MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.stack = []  # open frames: [span id, name, start, child seconds]
        self.next_id = 0
        self.spans = []
        self.dropped = 0
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.units = Counter()  # Budget.charge units by tag
        self.charges = Counter()  # Budget.charge calls by tag
        self.root_covered = 0.0  # span time of the current op's top-level spans
        self.root_self_s = 0.0  # time inside ops not covered by any span

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.next_id
            self.next_id += 1
            frame = [sid, name, time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - frame[2]
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[3]
                parent = self.stack[-1] if self.stack else None
                if parent is not None:
                    parent[3] += duration
                else:
                    self.root_covered += duration
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (sid, name, frame[2], end, parent[0] if parent else None, self.op_id)
                    )
                else:
                    self.dropped += 1

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def budget_charge(self, fn):
        @functools.wraps(fn)
        def charge(budget, amount=1, what="work"):
            if self.active:
                self.units[what] += int(amount)
                self.charges[what] += 1
            return fn(budget, amount, what)

        return charge

    def begin_op(self, op_id):
        self.op_id = op_id
        self.root_covered = 0.0
        self.active = True

    def end_op(self, op_seconds):
        self.active = False
        self.root_self_s += max(0.0, op_seconds - self.root_covered)

    def write_spans(self, path):
        with open(path, "w") as handle:
            for sid, name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")


def _rebind(modules, original, wrapper):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer):
    """Wrap the layer modules' public callables; returns an undo function."""
    import importlib

    import ordsep

    modules = {name: importlib.import_module(f"ordsep.{name}") for name in LAYERS}
    every = [ordsep] + [importlib.import_module(f"ordsep.{m}") for m in
                        ("errors", "words", "action_graph", "budget", "surgery", "amalgam",
                         "amalgam_graph", "oracle", "cli")]
    undo = []
    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if inspect.isgeneratorfunction(fn):
                continue  # its body runs inside the consumer's spans
            name = f"{layer}.{attr}"
            wrapper = tracer.counter(name, fn) if name in COUNT_ONLY else tracer.span(name, fn)
            _rebind(every, fn, wrapper)
            undo.append(functools.partial(_rebind, every, wrapper, fn))
    for layer, cls_name, attr, name in METHODS:
        cls = getattr(modules[layer], cls_name)
        fn = cls.__dict__[attr]
        wrapper = tracer.counter(name, fn) if name in COUNT_ONLY else tracer.span(name, fn)
        setattr(cls, attr, wrapper)
        undo.append(functools.partial(setattr, cls, attr, fn))
    budget_cls = modules["budget"].Budget
    original_charge = budget_cls.charge
    budget_cls.charge = tracer.budget_charge(original_charge)
    undo.append(functools.partial(setattr, budget_cls, "charge", original_charge))

    def uninstall():
        for step in reversed(undo):
            step()

    return uninstall
