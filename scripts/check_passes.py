#!/usr/bin/env python
"""Static audit of the flow pass registry.

Walks every registered :class:`repro.flow.Pass` and fails on:

* a missing or non-Table-II ``stage``,
* a missing ``effects`` declaration,
* an effects declaration that is not *total* — every tracked
  :class:`~repro.flow.properties.SecurityProperty` must be explicitly
  preserved, established, or invalidated (the manager treats undeclared
  as invalidated, but a pass relying on that default is a pass nobody
  has thought about — exactly what this check exists to catch),
* a registry-key / class-attribute name mismatch,
* a pass class without a docstring (the declaration's rationale),
* a physical-synthesis pass that claims to leave all three layout
  properties (probing / FIA / Trojan) untouched — physical passes move
  geometry, so each must establish or invalidate at least one,
* a pass establishing a layout property from outside the
  physical-synthesis stage (layout metrics are measured on routed
  geometry, which only physical passes produce or edit),
* a closure ECO (``is_closure_eco = True``) that breaks the ECO
  contract: netlist untouched (functional equivalence *preserved*),
  at least one layout property established, physical-synthesis stage,
* a ``PassProvenance(...)`` call in any module under ``src/repro``
  other than ``flow/manager.py``: :func:`repro.flow.manager.run_pass`
  is the one writer of a flow trace's pass entries,
* a composition stack name that reaches no registered pass: a
  :data:`repro.core.designs.STACK_PASSES` entry naming an unregistered
  pass, or a :data:`repro.service.campaigns.DEFAULT_STACKS` stack using
  a name that table lacks (so a mistyped stack fails here, not in a
  worker job).

Run directly (exit 1 on problems) or import :func:`audit` from a test.

Usage::

    PYTHONPATH=src python scripts/check_passes.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List

SRC = Path(__file__).resolve().parent.parent / "src"
#: The only module that may construct ``PassProvenance``.
PROVENANCE_WRITER = Path("repro", "flow", "manager.py")

sys.path.insert(0, str(SRC))


def audit() -> List[str]:
    """Return one problem string per registry violation (empty = clean)."""
    from repro.core.stages import DesignStage
    from repro.flow import Effects, registered_passes
    from repro.flow.properties import SecurityProperty

    layout_props = frozenset((SecurityProperty.PROBING_EXPOSURE,
                              SecurityProperty.FIA_EXPOSURE,
                              SecurityProperty.TROJAN_INSERTABILITY))
    problems: List[str] = []
    for name, cls in sorted(registered_passes().items()):
        where = f"{cls.__module__}.{cls.__qualname__}"
        if cls.name != name:
            problems.append(
                f"{name}: registry key does not match {where}.name "
                f"({cls.name!r})")
        if not isinstance(cls.stage, DesignStage):
            problems.append(
                f"{name}: missing stage (must be a DesignStage / "
                f"Table II row), got {cls.stage!r}")
        if not isinstance(cls.effects, Effects):
            problems.append(
                f"{name}: missing effects declaration ({where})")
        else:
            undeclared = cls.effects.undeclared
            if undeclared:
                props = ", ".join(sorted(p.value for p in undeclared))
                problems.append(
                    f"{name}: undeclared effect on {props} — declare "
                    f"preserves/establishes/invalidates explicitly")
            problems.extend(_layout_problems(name, cls, layout_props,
                                             SecurityProperty))
        if not (cls.__doc__ or "").strip():
            problems.append(f"{name}: pass class {where} has no "
                            "docstring explaining its declaration")
    return problems + _stack_problems() + _stray_provenance_writers()


def _stack_problems() -> List[str]:
    """One problem per composition stack name without a registered
    pass behind it."""
    from repro.core.designs import STACK_PASSES
    from repro.flow import registered_passes
    from repro.service.campaigns import DEFAULT_STACKS

    registered = registered_passes()
    problems = [
        f"STACK_PASSES[{name!r}]: names unregistered pass {pass_name!r}"
        for name, pass_name in sorted(STACK_PASSES.items())
        if pass_name not in registered]
    for label, names in sorted(DEFAULT_STACKS.items()):
        problems.extend(
            f"DEFAULT_STACKS[{label!r}]: stack name {name!r} is not in "
            f"STACK_PASSES" for name in names if name not in STACK_PASSES)
    return problems


def _stray_provenance_writers() -> List[str]:
    """One problem per ``PassProvenance(...)`` call outside the pass
    manager module."""
    problems: List[str] = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel == PROVENANCE_WRITER:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = (func.id if isinstance(func, ast.Name) else
                      func.attr if isinstance(func, ast.Attribute)
                      else None)
            if called == "PassProvenance":
                problems.append(
                    f"{rel.as_posix()}:{node.lineno}: constructs "
                    f"PassProvenance — record passes through "
                    f"repro.flow.manager.run_pass")
    return problems


def _layout_problems(name, cls, layout_props, SecurityProperty):
    """Layout-property and closure-ECO contract checks for one pass."""
    from repro.core.stages import DesignStage

    problems: List[str] = []
    physical = cls.stage is DesignStage.PHYSICAL_SYNTHESIS
    established = cls.effects.establishes & layout_props
    touched = established | (cls.effects.invalidates & layout_props)
    if physical and not touched:
        problems.append(
            f"{name}: physical-synthesis pass declares no effect on any "
            f"layout property — geometry changes must establish or "
            f"invalidate probing/FIA/Trojan exposure")
    if established and not physical:
        props = ", ".join(sorted(p.value for p in established))
        problems.append(
            f"{name}: establishes layout property {props} outside the "
            f"physical-synthesis stage — layout metrics exist only on "
            f"routed geometry")
    if getattr(cls, "is_closure_eco", False):
        fe = SecurityProperty.FUNCTIONAL_EQUIVALENCE
        if fe not in cls.effects.preserves:
            problems.append(
                f"{name}: closure ECO must preserve functional "
                f"equivalence (ECOs edit geometry, never the netlist)")
        if not established:
            problems.append(
                f"{name}: closure ECO establishes no layout property — "
                f"an ECO that closes nothing is not a closure ECO")
        if not physical:
            problems.append(
                f"{name}: closure ECO must belong to the "
                f"physical-synthesis stage")
    return problems


def main() -> int:
    problems = audit()
    from repro.flow import registered_passes

    total = len(registered_passes())
    if problems:
        print(f"pass registry audit: {len(problems)} problem(s) "
              f"across {total} registered passes")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"pass registry audit: {total} passes, all declarations total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
