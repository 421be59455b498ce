"""The repo benchmark's calls into the library still hold.

``perfbench/`` is the benchmark, and a change to the library does not
edit it, so an API it calls that moves or changes breaks the benchmark
run instead of a test.  This runs each in-process workload's
``warm_up`` once, untraced: every ``signoff`` recipe and every
``attack`` op kind, each with its known-answer ``expect`` checks (a
wrong verdict raises ``WrongAnswer``).  The ``gateway`` workload runs
the service as a child process and has its own checks
(``perfbench/test_perfbench.py``).
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's workload modules, imported as ``run.py`` imports
    them (top-level, from the ``perfbench/`` directory)."""
    sys.path.insert(0, PERFBENCH)
    try:
        import attack
        import signoff
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
    return attack, signoff, tracer


def test_signoff_recipes_give_their_known_answers(perfbench):
    _, signoff, tracer = perfbench
    signoff.Signoff(seed=7).warm_up(tracer.Tracer())


def test_attack_ops_give_their_known_answers(perfbench):
    attack, _, tracer = perfbench
    attack.Attack(seed=7).warm_up(tracer.Tracer())
