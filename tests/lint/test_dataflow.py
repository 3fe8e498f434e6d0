"""The bundled analyses (held locks, open resources) and the engine's
join and kill, driven by a toy reaching-definitions analysis."""

from __future__ import annotations

import ast

from repro.lint.cfg import WithExit, build_cfg
from repro.lint.dataflow import (
    ForwardAnalysis,
    HeldLocks,
    OpenResources,
    assigned_names,
    run_forward,
)


def flow(source: str, analysis):
    tree = ast.parse(source)
    cfg = build_cfg(tree.body[0])
    return run_forward(cfg, analysis)


def classify_open(call: ast.Call):
    if isinstance(call.func, ast.Name) and call.func.id == "open":
        return ("handle", "open(...)")
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "with_name"
    ):
        return ("tmpfile", "with_name(...)")
    return None


# ---- HeldLocks ------------------------------------------------------


def test_lock_held_inside_with_released_after():
    analysis = HeldLocks()
    result = flow(
        "def f(self):\n"
        "    with self._lock:\n"
        "        inside = 1\n"
        "    outside = 2\n",
        analysis,
    )
    held_at = {}
    for element, state in result.states():
        if isinstance(element, ast.Assign):
            name = element.targets[0].id
            held_at[name] = analysis.held(state)
    assert held_at["inside"] == frozenset({"self._lock"})
    assert held_at["outside"] == frozenset()


def test_nested_and_multi_item_withs_stack():
    analysis = HeldLocks()
    result = flow(
        "def f(self, other):\n"
        "    with self.a, other.b:\n"
        "        with self.c:\n"
        "            deep = 1\n"
        "        shallow = 2\n",
        analysis,
    )
    held_at = {}
    for element, state in result.states():
        if isinstance(element, ast.Assign):
            held_at[element.targets[0].id] = analysis.held(state)
    assert held_at["deep"] == frozenset({"self.a", "other.b", "self.c"})
    assert held_at["shallow"] == frozenset({"self.a", "other.b"})


def test_call_context_managers_are_not_locks():
    analysis = HeldLocks()
    result = flow(
        "def f(path):\n"
        "    with open(path) as fh:\n"
        "        data = fh.read()\n",
        analysis,
    )
    for _element, state in result.states():
        assert analysis.held(state) == frozenset()


# ---- OpenResources --------------------------------------------------


def leaked(source: str):
    return {r.name for r in flow(source, OpenResources(classify_open)).at_exit()}


def test_unclosed_handle_leaks():
    assert leaked("def f(p):\n    fh = open(p)\n    return 1\n") == {"fh"}


def test_closed_handle_does_not_leak():
    assert leaked("def f(p):\n    fh = open(p)\n    fh.close()\n") == set()


def test_leak_on_one_branch_is_reported():
    assert leaked(
        "def f(p, flag):\n"
        "    fh = open(p)\n"
        "    if flag:\n"
        "        return None\n"
        "    fh.close()\n"
        "    return 1\n"
    ) == {"fh"}


def test_with_management_kills_handles():
    assert leaked(
        "def f(p):\n"
        "    fh = open(p)\n"
        "    with fh:\n"
        "        return fh.read()\n"
    ) == set()


def test_escapes_transfer_ownership():
    assert leaked("def f(p):\n    fh = open(p)\n    return fh\n") == set()
    assert leaked("def f(p, sink):\n    fh = open(p)\n    sink(fh)\n") == set()
    assert leaked(
        "def f(self, p):\n    fh = open(p)\n    self.fh = fh\n"
    ) == set()


def test_rebinding_forgets_the_old_resource():
    # The first handle is dropped on rebind; only the second is live,
    # and it is closed.
    assert leaked(
        "def f(p, q):\n"
        "    fh = open(p)\n"
        "    fh = open(q)\n"
        "    fh.close()\n"
    ) == set()


def test_os_replace_commits_a_tmpfile():
    assert leaked(
        "def f(path, os):\n"
        "    tmp = path.with_name('x.tmp')\n"
        "    os.replace(tmp, path)\n"
    ) == set()


def test_os_replace_on_handle_name_commits_it():
    assert leaked(
        "def f(path, os, tempfile):\n"
        "    handle = open(path)\n"
        "    os.replace(handle.name, path)\n"
    ) == set()


def test_method_calls_keep_the_resource_alive():
    assert leaked(
        "def f(p):\n"
        "    fh = open(p)\n"
        "    fh.write(b'x')\n"
        "    return 1\n"
    ) == {"fh"}


def test_atomic_write_idiom_is_clean():
    assert leaked(
        "def f(path, payload, os):\n"
        "    tmp = path.with_name(path.name + '.tmp')\n"
        "    try:\n"
        "        tmp.write_bytes(payload)\n"
        "        os.replace(tmp, path)\n"
        "    except BaseException:\n"
        "        tmp.unlink()\n"
        "        raise\n"
    ) == set()


def test_atomic_write_without_commit_leaks():
    assert leaked(
        "def f(path, payload):\n"
        "    tmp = path.with_name(path.name + '.tmp')\n"
        "    tmp.write_bytes(payload)\n"
    ) == {"tmp"}


# ---- engine join and kill ------------------------------------------


class ReachingDefinitions(ForwardAnalysis):
    """Toy analysis: ``(name, line)`` facts, killed when ``name`` is
    rebound."""

    def transfer(self, state, element):
        bound = assigned_names(element)
        if not bound:
            return state
        killed = {name for name, _line in bound}
        live = frozenset(fact for fact in state if fact[0] not in killed)
        return live | frozenset(bound)


def test_reaching_definitions_merge_at_joins():
    result = flow(
        "def f(flag):\n"
        "    x = 1\n"
        "    if flag:\n"
        "        x = 2\n"
        "    done = 1\n",
        ReachingDefinitions(),
    )
    at_done = None
    for element, state in result.states():
        if (
            isinstance(element, ast.Assign)
            and element.targets[0].id == "done"
        ):
            at_done = state
    x_lines = {line for name, line in at_done if name == "x"}
    assert x_lines == {2, 4}


def test_reaching_definitions_kill_on_rebind():
    result = flow(
        "def f():\n    x = 1\n    x = 2\n    done = 1\n",
        ReachingDefinitions(),
    )
    at_done = None
    for element, state in result.states():
        if (
            isinstance(element, ast.Assign)
            and element.targets[0].id == "done"
        ):
            at_done = state
    assert {line for name, line in at_done if name == "x"} == {3}


def test_with_exit_markers_carry_no_resource_change():
    analysis = OpenResources(classify_open)
    result = flow(
        "def f(p):\n"
        "    with open(p) as fh:\n"
        "        data = fh.read()\n",
        analysis,
    )
    for element, state in result.states():
        if isinstance(element, WithExit):
            assert analysis.transfer(state, element) == state
