"""The pass manager: pipelines, incremental re-verification, provenance.

:class:`PassManager` is the paper's re-verification loop made
incremental.  It runs a pipeline of registered passes over a
:class:`~repro.core.composition.Design`, and after each pass consults
the pass's declared :class:`~repro.flow.passes.Effects` to decide which
tracked security properties must be re-measured:

* *establishes* — the property is checked right after the pass (did the
  countermeasure actually work?);
* *invalidates* (or undeclared — the conservative default) — the
  property is re-checked, but only if it currently held;
* *preserves* — the property is carried forward with **no** re-check.

Everything the run did — wall time per pass, cell deltas, which
properties were re-checked and why, cache hit rates, netlist mutation
epochs — lands in a machine-readable :class:`FlowTrace`, the only
record of a flow run.  One function, :func:`run_pass`, writes each
pass's entry, for the manager and for
:func:`repro.physical.closure.security_closure` alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.composition import Design
from ..core.stages import DesignStage
from .analysis import AnalysisCache
from .passes import Pass, PassResult
from .properties import PropertyCheck, SecurityProperty


def _key(prop) -> str:
    """Display/dict key for a property (enum value or custom string)."""
    return prop.value if isinstance(prop, SecurityProperty) else str(prop)


class FlowContext:
    """Mutable state threaded through a pipeline run.

    Passes read and update ``design`` (via their returned
    :class:`~repro.flow.passes.PassResult`), share analyses through
    ``cache``, publish side artifacts (placement, scan chain, ATPG
    results) into ``placement`` / ``notes``, and derive determinism
    from ``seed``.
    """

    def __init__(self, design: Design, cache: Optional[AnalysisCache] = None,
                 seed: int = 0) -> None:
        self.design = design
        self.cache = cache if cache is not None else AnalysisCache()
        self.seed = seed
        self.placement = None
        self.routing = None          # RoutedLayout, set by the route pass
        self.notes: Dict[str, object] = {}


@dataclass
class PropertyRecheck:
    """One property measurement scheduled by the manager."""

    key: str                   # property key ("masking", "tvla-bound", ...)
    when: str                  # "baseline" | "after <pass>" | "final"
    reason: str                # "baseline" | "establishes" | "invalidates"
    passed: bool
    value: float
    message: str

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    @property
    def line(self) -> str:
        """One-line form of the re-check, as listed in
        :attr:`FlowTrace.failures`."""
        return f"{self.key} [{self.when}]: {self.status} — {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {"property": self.key, "when": self.when,
                "reason": self.reason, "status": self.status,
                "value": self.value, "message": self.message}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PropertyRecheck":
        """Inverse of :meth:`as_dict` (``status`` back to ``passed``)."""
        return cls(key=str(data["property"]), when=str(data["when"]),
                   reason=str(data["reason"]),
                   passed=data["status"] == "PASS",
                   value=float(data["value"]),
                   message=str(data["message"]))


@dataclass
class PassProvenance:
    """What one pass did: timing, size delta, re-checks, cache traffic."""

    pass_name: str
    stage: Optional[DesignStage]
    effects: Dict[str, List[str]]
    wall_ms: float
    cells_before: int
    cells_after: int
    rewrites: int
    summary: str
    details: Dict[str, object] = field(default_factory=dict)
    rechecks: List[PropertyRecheck] = field(default_factory=list)
    epoch_before: int = 0
    epoch_after: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "pass": self.pass_name,
            "stage": self.stage.value if self.stage else None,
            "effects": self.effects,
            "wall_ms": round(self.wall_ms, 3),
            "cells_before": self.cells_before,
            "cells_after": self.cells_after,
            "rewrites": self.rewrites,
            "summary": self.summary,
            "details": {k: v for k, v in self.details.items()
                        if isinstance(v, (int, float, str, bool))},
            "rechecks": [r.as_dict() for r in self.rechecks],
            "epoch": [self.epoch_before, self.epoch_after],
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PassProvenance":
        """Inverse of :meth:`as_dict`.

        ``wall_ms`` comes back at the serialized (millisecond-rounded)
        precision, so re-serializing yields the identical dict; a
        document stripped by :func:`strip_wall_times` reads it as 0.
        """
        cache = data.get("cache", {})
        epoch = data.get("epoch", [0, 0])
        return cls(
            pass_name=str(data["pass"]),
            stage=(DesignStage(data["stage"]) if data.get("stage")
                   else None),
            effects={k: list(v) for k, v in data["effects"].items()},
            wall_ms=float(data.get("wall_ms", 0.0)),
            cells_before=int(data["cells_before"]),
            cells_after=int(data["cells_after"]),
            rewrites=int(data["rewrites"]),
            summary=str(data["summary"]),
            details=dict(data.get("details", {})),
            rechecks=[PropertyRecheck.from_dict(r)
                      for r in data.get("rechecks", [])],
            epoch_before=int(epoch[0]), epoch_after=int(epoch[1]),
            cache_hits=int(cache.get("hits", 0)),
            cache_misses=int(cache.get("misses", 0)),
        )


@dataclass
class FlowTrace:
    """Machine-readable provenance of a full pipeline run."""

    design_name: str
    baseline: List[PropertyRecheck] = field(default_factory=list)
    passes: List[PassProvenance] = field(default_factory=list)
    final: List[PropertyRecheck] = field(default_factory=list)

    def all_rechecks(self) -> List[PropertyRecheck]:
        out = list(self.baseline)
        for p in self.passes:
            out.extend(p.rechecks)
        out.extend(self.final)
        return out

    @property
    def failures(self) -> List[str]:
        return [r.line for r in self.all_rechecks() if not r.passed]

    @property
    def total_wall_ms(self) -> float:
        return sum(p.wall_ms for p in self.passes)

    def rechecked_properties(self, pass_name: str) -> List[str]:
        """Property keys re-measured after the named pass."""
        for p in self.passes:
            if p.pass_name == pass_name:
                return [r.key for r in p.rechecks]
        raise KeyError(f"no pass {pass_name!r} in trace")

    def to_dict(self) -> Dict[str, object]:
        # The serialized total is derived from the *serialized* (ms-
        # rounded) per-pass times, so dict -> from_dict -> to_dict is a
        # fixed point even though in-memory wall_ms keeps full
        # precision.
        return {
            "design": self.design_name,
            "baseline": [r.as_dict() for r in self.baseline],
            "passes": [p.as_dict() for p in self.passes],
            "final": [r.as_dict() for r in self.final],
            "failures": self.failures,
            "total_wall_ms": round(
                sum(round(p.wall_ms, 3) for p in self.passes), 3),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FlowTrace":
        """Rebuild a trace from :meth:`to_dict` output.

        Derived fields (``failures``, ``total_wall_ms``) are ignored on
        input and recomputed; everything else round-trips losslessly,
        so a trace returned by a service job revives as a full
        :class:`FlowTrace`, not a dict blob.
        """
        return cls(
            design_name=str(data["design"]),
            baseline=[PropertyRecheck.from_dict(r)
                      for r in data.get("baseline", [])],
            passes=[PassProvenance.from_dict(p)
                    for p in data.get("passes", [])],
            final=[PropertyRecheck.from_dict(r)
                   for r in data.get("final", [])],
        )

    def render(self) -> str:
        """Human-readable provenance trace."""
        lines = [f"=== flow trace: {self.design_name} ==="]
        for r in self.baseline:
            lines.append(f"  [baseline] {r.key}: {r.status} — {r.message}")
        for p in self.passes:
            stage = p.stage.value if p.stage else "?"
            lines.append(
                f"[{p.pass_name}] ({stage}) {p.cells_before} -> "
                f"{p.cells_after} cells, {p.wall_ms:.1f} ms")
            if p.summary:
                lines.append(f"  - {p.summary}")
            for k, v in p.details.items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    lines.append(f"    {k} = {v:.2f}")
            for r in p.rechecks:
                lines.append(
                    f"  [re-check:{r.reason}] {r.key}: {r.status} — "
                    f"{r.message}")
        for r in self.final:
            lines.append(f"  [final] {r.key}: {r.status} — {r.message}")
        status = "FAIL" if self.failures else "PASS"
        lines.append(f"=== {status}: {len(self.failures)} failing "
                     f"check(s), {self.total_wall_ms:.1f} ms in passes ===")
        return "\n".join(lines)


def strip_wall_times(doc: Mapping) -> Dict[str, object]:
    """A :meth:`FlowTrace.to_dict` document without its wall times.

    Wall times are the only part of a trace that is not a pure function
    of the flow's inputs and seed, so job results and determinism
    checks use this form; :meth:`FlowTrace.from_dict` revives it with
    every ``wall_ms`` at 0.
    """
    out = {k: v for k, v in doc.items() if k != "total_wall_ms"}
    out["passes"] = [{k: v for k, v in p.items() if k != "wall_ms"}
                     for p in doc["passes"]]
    return out


@dataclass
class FlowRunResult:
    """Outcome of :meth:`PassManager.run`."""

    design: Design
    trace: FlowTrace
    context: FlowContext

    @property
    def failures(self) -> List[str]:
        return self.trace.failures

    @property
    def all_passed(self) -> bool:
        return not self.trace.failures


def declared_rechecks(p: Pass, props: Iterable
                      ) -> List[Tuple[object, str]]:
    """``(property, reason)`` for each of ``props`` that ``p`` does not
    preserve; the reason is the pass's declared action on it
    (``"establishes"`` or ``"invalidates"``).

    Custom string-keyed properties carry no effect declarations, and a
    pass without ``effects`` declares nothing: both conservatively
    invalidate (SecureFlow's re-run-everything loop).
    """
    out = []
    for prop in props:
        if isinstance(prop, SecurityProperty) and p.effects:
            action = p.effects.classify(prop)
        else:
            action = "invalidates"
        if action != "preserves":
            out.append((prop, action))
    return out


def recheck(checkers: Mapping, prop, ctx: FlowContext, when: str,
            reason: str) -> PropertyRecheck:
    """Measure ``prop`` on ``ctx`` with its checker, as a trace entry."""
    check: PropertyCheck = checkers[prop](ctx)
    return PropertyRecheck(_key(prop), when, reason, check.passed,
                           check.value, check.message)


def run_pass(trace: FlowTrace, p: Pass, ctx: FlowContext,
             checkers: Mapping, rechecks: Sequence[Tuple[object, str]]
             ) -> PassProvenance:
    """Apply ``p`` to ``ctx`` and append its provenance to ``trace``.

    The one writer of :class:`PassProvenance`: applies the pass, swaps
    in the design it returns, records cell, mutation-epoch and
    analysis-cache deltas, measures each ``(property, reason)`` of
    ``rechecks`` after the pass, and times all of it as ``wall_ms``.
    """
    netlist = ctx.design.netlist
    cells_before = len(netlist.gates)
    epoch_before = netlist.mutation_epoch
    hits0, misses0 = ctx.cache.hits, ctx.cache.misses
    start = time.perf_counter()
    result: PassResult = p.apply(netlist, ctx)
    if result.design is not None:
        ctx.design = result.design
    after = ctx.design.netlist
    prov = PassProvenance(
        pass_name=p.name, stage=p.stage,
        effects=p.effects.as_dict() if p.effects else
        {"preserves": [], "establishes": [], "invalidates": []},
        wall_ms=0.0,
        cells_before=cells_before, cells_after=len(after.gates),
        rewrites=result.rewrites, summary=result.summary,
        details=dict(result.details),
        epoch_before=epoch_before,
        epoch_after=after.mutation_epoch)
    when = f"after {p.name}"
    for prop, reason in rechecks:
        prov.rechecks.append(recheck(checkers, prop, ctx, when, reason))
    prov.wall_ms = (time.perf_counter() - start) * 1000.0
    prov.cache_hits = ctx.cache.hits - hits0
    prov.cache_misses = ctx.cache.misses - misses0
    trace.passes.append(prov)
    return prov


class PassManager:
    """Runs pass pipelines with effect-driven incremental re-verification.

    ``checkers`` maps property keys (usually
    :class:`~repro.flow.properties.SecurityProperty` members, but any
    hashable key works for custom requirements) to callables
    ``checker(ctx) -> PropertyCheck``.

    :meth:`run` tracks the properties named in ``goals`` and
    ``assume``:

    * ``assume`` properties are measured once up front (the baseline) —
      they are expected to hold on the input design;
    * ``goals`` properties are expected to hold at the *end*; if a run
      finishes without any pass establishing (and thus checking) a
      goal, it is measured once at the end.

    Custom string-keyed properties have no effect declarations, so every
    pass conservatively re-checks them — which is exactly
    ``SecureFlow``'s re-run-everything loop.
    """

    def __init__(self, checkers: Optional[Mapping] = None, seed: int = 0,
                 cache: Optional[AnalysisCache] = None) -> None:
        self.checkers: Dict[object, Callable] = dict(checkers or {})
        self.seed = seed
        self.cache = cache if cache is not None else AnalysisCache()

    def _tracked(self, goals: Iterable, assume: Iterable) -> List:
        wanted = list(assume) + [g for g in goals if g not in set(assume)]
        missing = [p for p in wanted if p not in self.checkers]
        if missing:
            raise KeyError(
                "no checker registered for tracked properties: "
                + ", ".join(_key(p) for p in missing))
        return wanted

    def run(self, design: Design, passes: Sequence[Pass],
            goals: Iterable = (), assume: Iterable = ()) -> FlowRunResult:
        """Run ``passes`` over ``design`` with incremental re-verification."""
        goals = tuple(goals)
        assume = tuple(assume)
        tracked = self._tracked(goals, assume)
        ctx = FlowContext(design, cache=self.cache, seed=self.seed)
        trace = FlowTrace(design.name)

        held: set = set()
        checked_ever: set = set()
        for prop in assume:
            measured = recheck(self.checkers, prop, ctx, "baseline",
                               "baseline")
            trace.baseline.append(measured)
            checked_ever.add(prop)
            if measured.passed:
                held.add(prop)

        for p in passes:
            # An invalidated property that does not hold has nothing
            # to lose: only re-check it while it holds.
            due = [(prop, reason)
                   for prop, reason in declared_rechecks(p, tracked)
                   if reason == "establishes" or prop in held]
            prov = run_pass(trace, p, ctx, self.checkers, due)
            for (prop, _), measured in zip(due, prov.rechecks):
                checked_ever.add(prop)
                if measured.passed:
                    held.add(prop)
                else:
                    held.discard(prop)

        for prop in goals:
            if prop not in checked_ever:
                trace.final.append(recheck(self.checkers, prop, ctx,
                                           "final", "baseline"))

        return FlowRunResult(ctx.design, trace, ctx)
