"""Set-up time of one fresh process: import ordsep, then parse the inputs.

Reads the generated workload JSON on stdin (before the clock starts) and
prints two numbers: the seconds from just before ``import ordsep`` to the
end of parsing, and the seconds the same process then takes to import
REFERENCE_MODULES, a fixed set of standard-library modules that neither
ordsep nor numpy imports.  The second is a reference for how fast the
machine does import work at that moment.
"""

import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

REFERENCE_MODULES = ("asyncio", "email.parser", "http.client", "xml.dom.minidom", "difflib",
                     "decimal", "csv", "unittest", "tarfile", "configparser")

if __name__ == "__main__":
    text = sys.stdin.read()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    t0 = time.perf_counter()
    import ordsep  # noqa: F401

    import ops

    data = json.loads(text)
    env = ops.make_env(str(HERE.parent), data["presentations"], data["files"])
    prepared = [ops.prepare(spec, env) for spec in data["ops"]]
    setup_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    print(setup_s, time.perf_counter() - t1)
