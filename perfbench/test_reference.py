"""The benchmark's reference check must accept the program's outputs and
reject corrupted ones.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest

import reference as ref
from bench import make_query
from repro import Flash, dst_only_layout, fabric
from repro.dataplane.trace import inserts_only
from repro.fibgen.shortest_path import std_fib


@pytest.fixture(scope="module")
def verified():
    topo = fabric(2, 2, 2, 1)
    layout = dst_only_layout(6)
    updates = inserts_only(std_fib(topo, layout))
    flash = Flash(topo, layout, check_loops=True)
    flash.verify_offline(updates)
    switches = sorted(topo.switches())
    space = ref.HeaderSpace(layout)
    fib = ref.ReferenceFib(space, switches)
    fib.apply_all(updates)
    vectors, groups = fib.classes()
    return topo, layout, flash.read_view(), switches, space, vectors, groups


def test_model_matches_reference(verified):
    _, _, view, switches, space, vectors, _ = verified
    ecs = ref.model_ecs(view, switches)
    assert ref.check_model(space, switches, vectors, list(range(space.size)),
                           ecs, "model") == []


def test_corrupted_model_is_rejected(verified):
    _, _, view, switches, space, vectors, _ = verified
    ecs = ref.model_ecs(view, switches)
    pred, vec = ecs[0]
    wrong = tuple("DROP" if i == 0 else a for i, a in enumerate(vec))
    assert wrong != vec
    errors = ref.check_model(space, switches, vectors, list(range(space.size)),
                             [(pred, wrong)] + ecs[1:], "model")
    assert errors
    # Two ECs with one action vector break the method's own invariant.
    errors = ref.check_model(space, switches, vectors, list(range(space.size)),
                             ecs + [ecs[0]], "model")
    assert any("share action vector" in e for e in errors)


@pytest.mark.parametrize("spec_index", range(6))
def test_corrupted_answer_is_rejected(verified, spec_index):
    topo, layout, view, switches, space, _, groups = verified
    tors = sorted(topo.select(role="tor"))
    fabs = sorted(topo.select(role="fabric"))
    specs = [
        ("reach", tors[0], None, None),
        ("reach", fabs[0], None, (0b100000, 1)),
        ("loop", None, None, None),
        ("loop", None, None, (0, 2)),
        ("waypoint", tors[0], fabs[0], None),
        ("waypoint", tors[1], fabs[1], (0b010000, 2)),
    ]
    spec = specs[spec_index]
    graph = ref.Graph(topo, switches)
    scope = set(space.dst_scope(spec[3]))
    answer = make_query(spec, layout).evaluate(view, topo)
    served = (answer.holds, answer.headers)
    expected = lambda s: ref.query_answer(graph, groups, scope, s)
    assert ref.check_answers([(spec, served)], expected, "q") == []
    for bad in ((not served[0], served[1]), (served[0], served[1] + 1)):
        assert ref.check_answers([(spec, bad)], expected, "q")


def test_loop_verdicts():
    """Before full synchronisation a loop verdict may be unknown; after it,
    an unknown, missing, short or wrong verdict is rejected."""
    ok, unknown = ("loop", "satisfied"), ("loop", "unknown")
    check = ref.check_loop_verdicts
    assert check([(unknown,), (ok, ("r", "unknown"))], False, "early", 0) == []
    assert check([(ok, ok)], False, "synced", 2) == []
    assert check([(("loop", "violated"),)], False, "early", 0)
    assert check([(ok,)], True, "synced", 1)
    assert check([(unknown,)], False, "synced", 1)
    assert check([(("r", "satisfied"),)], False, "synced", 1)
    assert check([(ok, unknown)], False, "synced", 2)
    assert check([(ok,)], False, "synced", 2)


def test_run_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and perfbench/, the command exits non-zero
    and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ecmp_storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        timeout=120,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
