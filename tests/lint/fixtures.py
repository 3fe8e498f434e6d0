"""Inline-source fixtures for every lint rule.

Each rule maps to positive fixtures (must produce at least one finding
with that rule id) and negative fixtures (must produce none).  The
meta-test (:mod:`tests.lint.test_meta`) asserts every registered rule
has at least one of each, so adding a rule without fixtures fails CI.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: rule id -> ("positive" | "negative") -> [(source, module-override)]
Fixture = Tuple[str, Optional[str]]

RULE_FIXTURES: Dict[str, Dict[str, List[Fixture]]] = {
    "no-print": {
        "positive": [
            ('print("hello")\n', None),
            ('def f():\n    print("nested")\n', "repro.core.units"),
        ],
        "negative": [
            # Strings and docstrings mentioning print are fine (AST-based).
            ('"""usage: print(x)"""\nVALUE = "print(x)"\n', None),
            # The CLIs own stdout.
            ('print("report")\n', "repro.analysis.cli"),
            ('print("report")\n', "repro.analysis.report"),
        ],
    },
    "determinism": {
        "positive": [
            # Unseeded module-state draw reachable from a registered
            # experiment through a helper.
            (
                "import numpy as np\n"
                "\n"
                "def helper():\n"
                "    return np.random.rand(3)\n"
                "\n"
                "def run():\n"
                "    return helper()\n"
                "\n"
                'EXPERIMENTS = {"fig1": run}\n',
                None,
            ),
            # Wall-clock read at module top level runs at import time.
            ("import time\n\nSTART = time.time()\n", None),
            # Environment read reachable from an annotated registry.
            (
                "import os\n"
                "from typing import Callable, Dict\n"
                "\n"
                "def run():\n"
                '    return os.environ.get("KNOB", "0")\n'
                "\n"
                "EXPERIMENTS: Dict[str, Callable] = {\"fig2\": run}\n",
                None,
            ),
        ],
        "negative": [
            # The sanctioned idiom: a seeded generator.
            (
                "import numpy as np\n"
                "\n"
                "def run(seed=0):\n"
                "    rng = np.random.default_rng(seed)\n"
                "    return float(rng.random())\n"
                "\n"
                'EXPERIMENTS = {"fig1": run}\n',
                None,
            ),
            # A sin in a function no experiment reaches is not flagged.
            ("import time\n\ndef helper():\n    return time.time()\n", None),
        ],
    },
    "import-layering": {
        "positive": [
            # core (layer 0) must not import analysis (layer 6).
            ("from repro.analysis import tables\n", "repro.core.units"),
            ("import repro.runtime.executor\n", "repro.trace.model"),
            # obs may import nothing of repro.
            ("from repro.core import units\n", "repro.obs.core"),
            # The injection hooks live below the fault plans: sim must
            # never import the faults package above it.
            ("from repro.faults import FaultPlan\n", "repro.sim.executor"),
            # profiling and faults share a rank; neither may import the
            # other at module level.
            ("from repro.profiling import flame\n", "repro.faults.detect"),
        ],
        "negative": [
            # Downward edges are the point.
            ("from repro.core import units\n", "repro.analysis.report"),
            # faults sits above the layers it injects into...
            ("from repro.sim import StepFaults\n", "repro.faults.injector"),
            ("from repro.sched import CrashSpec\n", "repro.faults.injector"),
            # ...and below its consumers.
            (
                "from repro.faults import score_suite\n",
                "repro.analysis.faults_scenarios",
            ),
            # Function-scoped imports are the sanctioned cycle breaker.
            (
                "def f():\n"
                "    from repro.analysis import tables\n"
                "    return tables\n",
                "repro.core.units",
            ),
            # Same-subpackage imports are not edges.
            ("from repro.core import units\n", "repro.core.hardware"),
        ],
    },
    "fork-safety": {
        "positive": [
            # Mutating a module-level container from a function.
            (
                "CACHE = {}\n"
                "\n"
                "def put(key, item):\n"
                "    CACHE[key] = item\n",
                None,
            ),
            ("SEEN = []\n\ndef note(x):\n    SEEN.append(x)\n", None),
            # global statement rebinding module state.
            (
                "_STATE = None\n"
                "\n"
                "def install(value):\n"
                "    global _STATE\n"
                "    _STATE = value\n",
                None,
            ),
            # Locks and handles created at import time cross the fork.
            ("import threading\n\nLOCK = threading.Lock()\n", None),
        ],
        "negative": [
            # Function-local mutation is private to the call.
            (
                "def f():\n"
                "    cache = {}\n"
                '    cache["a"] = 1\n'
                "    return cache\n",
                None,
            ),
            # Module-level constants that are never mutated.
            ("LIMITS = (1, 2, 3)\nNAMES = {}\n", None),
        ],
    },
    "units-hygiene": {
        "positive": [
            # Magic conversion literals belong in core/units.py.
            ("def gb(n):\n    return n / 1e9\n", None),
            ("def mib(n):\n    return n / (1024 * 1024)\n", None),
            # Non-base-unit name suffixes.
            ("duration_ms = 5\n", None),
            ("def f(size_gb):\n    return size_gb\n", None),
        ],
        "negative": [
            # The units module itself defines the constants.
            ("GB = 1e9\nMIB = 1024 * 1024\n", "repro.core.units"),
            # Base-unit suffixes are the convention.
            ("total_bytes = 10\nelapsed_s = 1.5\n", None),
        ],
    },
    "lock-discipline": {
        "positive": [
            # Guarded write in one method, unguarded read in another.
            (
                "import threading\n"
                "\n"
                "class Counter:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._total = 0\n"
                "\n"
                "    def add(self, n):\n"
                "        with self._lock:\n"
                "            self._total += n\n"
                "\n"
                "    def peek(self):\n"
                "        return self._total\n",
                None,
            ),
            # Unguarded write races the guarded one.
            (
                "import threading\n"
                "\n"
                "class Box:\n"
                "    def __init__(self):\n"
                "        self.lock = threading.Lock()\n"
                "        self.value = None\n"
                "\n"
                "    def set(self, v):\n"
                "        with self.lock:\n"
                "            self.value = v\n"
                "\n"
                "    def reset(self):\n"
                "        self.value = None\n",
                None,
            ),
            # The only acquisition sits under an ``if``.
            (
                "import threading\n"
                "\n"
                "class Gate:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._hits = 0\n"
                "\n"
                "    def hit(self, guarded):\n"
                "        if guarded:\n"
                "            with self._lock:\n"
                "                self._hits += 1\n"
                "\n"
                "    def hits(self):\n"
                "        return self._hits\n",
                None,
            ),
        ],
        "negative": [
            # Every non-constructor access holds the lock.
            (
                "import threading\n"
                "\n"
                "class Counter:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._total = 0\n"
                "\n"
                "    def add(self, n):\n"
                "        with self._lock:\n"
                "            self._total += n\n"
                "\n"
                "    def peek(self):\n"
                "        with self._lock:\n"
                "            return self._total\n",
                None,
            ),
            # No lock anywhere: nothing establishes a discipline.
            (
                "class Plain:\n"
                "    def __init__(self):\n"
                "        self.value = 0\n"
                "\n"
                "    def bump(self):\n"
                "        self.value += 1\n",
                None,
            ),
            # The justified lock-free read of monotone state.
            (
                "import threading\n"
                "\n"
                "class Monotone:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._version = 0\n"
                "\n"
                "    def bump(self):\n"
                "        with self._lock:\n"
                "            self._version += 1\n"
                "\n"
                "    def peek(self):\n"
                "        # repro: ignore[lock-discipline] monotone counter\n"
                "        return self._version\n",
                None,
            ),
        ],
    },
    "resource-safety": {
        "positive": [
            # The early return leaks the handle on one path.
            (
                "def read_header(path, strict):\n"
                "    fh = open(path)\n"
                "    if strict:\n"
                "        return None\n"
                "    data = fh.read(16)\n"
                "    fh.close()\n"
                "    return data\n",
                None,
            ),
            # The tmp file only commits on one branch.
            (
                "import os\n"
                "\n"
                "def commit(path, payload):\n"
                "    tmp = path.with_name(path.name + '.tmp')\n"
                "    tmp.write_bytes(payload)\n"
                "    if payload:\n"
                "        os.replace(tmp, path)\n",
                None,
            ),
            # Born inside an ``if``, leaked by the return nested in it.
            (
                "def first_line(path, wanted):\n"
                "    if wanted:\n"
                "        fh = open(path)\n"
                "        line = fh.readline()\n"
                "        if not line:\n"
                "            return None\n"
                "        fh.close()\n"
                "        return line\n"
                "    return ''\n",
                None,
            ),
        ],
        "negative": [
            # Context management closes on every path.
            (
                "def read_all(path):\n"
                "    with open(path) as fh:\n"
                "        return fh.read()\n",
                None,
            ),
            # Explicit close on the single exit path.
            (
                "def sizes(path):\n"
                "    fh = open(path)\n"
                "    total = 0\n"
                "    for line in fh:\n"
                "        total += len(line)\n"
                "    fh.close()\n"
                "    return total\n",
                None,
            ),
            # The repo's atomic-write idiom: commit or unlink-and-raise.
            (
                "import os\n"
                "\n"
                "def commit(path, payload):\n"
                "    tmp = path.with_name(path.name + '.tmp')\n"
                "    try:\n"
                "        tmp.write_bytes(payload)\n"
                "        os.replace(tmp, path)\n"
                "    except BaseException:\n"
                "        tmp.unlink()\n"
                "        raise\n",
                None,
            ),
            # Returning the handle transfers ownership to the caller.
            ("def acquire(path):\n    return open(path)\n", None),
        ],
    },
    "exception-contract": {
        "positive": [
            (
                "def call(task):\n"
                "    try:\n"
                "        return task()\n"
                "    except Exception:\n"
                "        return None\n",
                None,
            ),
            # Silent retry: permanent failures loop without a trace.
            (
                "def retry(task):\n"
                "    for _ in range(3):\n"
                "        try:\n"
                "            return task()\n"
                "        except BaseException:\n"
                "            continue\n",
                None,
            ),
        ],
        "negative": [
            # Reporting through the bound name satisfies the contract.
            (
                "def call(task, log):\n"
                "    try:\n"
                "        return task()\n"
                "    except Exception as error:\n"
                "        log.warning('task failed: %s', error)\n"
                "        return None\n",
                None,
            ),
            # Cleanup-and-reraise is the fence idiom.
            (
                "def call(task, undo):\n"
                "    try:\n"
                "        return task()\n"
                "    except BaseException:\n"
                "        undo()\n"
                "        raise\n",
                None,
            ),
            # Narrow catches are outside this rule's contract.
            (
                "def call(task):\n"
                "    try:\n"
                "        return task()\n"
                "    except ValueError:\n"
                "        return None\n",
                None,
            ),
        ],
    },
    "hot-path": {
        "positive": [
            (
                "def listify(column):\n    return column.tolist()\n",
                "repro.core.population",
            ),
            (
                "import numpy as np\n"
                "\n"
                "def grow(items):\n"
                "    out = np.zeros(0)\n"
                "    for item in items:\n"
                "        out = np.append(out, item)\n"
                "    return out\n",
                "repro.sched.engine",
            ),
            (
                "import numpy as np\n"
                "\n"
                "def names(n):\n"
                "    return np.empty(n, dtype=object)\n",
                "repro.trace.columnar",
            ),
            (
                "def total(xs):\n"
                "    acc = 0\n"
                "    for i in range(len(xs)):\n"
                "        acc += xs[i]\n"
                "    return acc\n",
                "repro.core.population",
            ),
        ],
        "negative": [
            # Outside the hot registry the same code is fine.
            ("def listify(column):\n    return column.tolist()\n", None),
            # One concatenate after the loop is the sanctioned shape.
            (
                "import numpy as np\n"
                "\n"
                "def join(chunks):\n"
                "    parts = [np.asarray(c) for c in chunks]\n"
                "    return np.concatenate(parts)\n",
                "repro.core.population",
            ),
            # Direct iteration is not a range(len(...)) loop.
            (
                "def total(xs):\n"
                "    acc = 0\n"
                "    for x in xs:\n"
                "        acc += x\n"
                "    return acc\n",
                "repro.sched.engine",
            ),
        ],
    },
    "api-hygiene": {
        "positive": [
            ("def f(items=[]):\n    return items\n", None),
            ("def f(memo={}):\n    return memo\n", None),
            ("try:\n    pass\nexcept:\n    pass\n", None),
            ("def g(id):\n    return id\n", None),
            ("def f():\n    for list in ([],):\n        pass\n", None),
        ],
        "negative": [
            ("def f(items=None):\n    return items or []\n", None),
            ("try:\n    pass\nexcept ValueError:\n    pass\n", None),
            # Class bodies are their own namespace.
            ("class C:\n    id = 1\n\n    def set(self, v):\n        self.v = v\n", None),
        ],
    },
}
