"""The Pass contract: named, staged transforms with declared effects.

The paper's central observation (Sec. II-B, Fig. 2) is that *any*
transform — a PPA rewrite, a countermeasure, DFT insertion — can
silently destroy a security property established earlier.  The fix is
structural: every transform becomes a :class:`Pass` that declares, for
**every** tracked :class:`~repro.flow.properties.SecurityProperty`,
whether it *preserves*, *establishes*, or *invalidates* it.  The pass
manager (:mod:`repro.flow.manager`) turns those declarations into an
incremental re-verification schedule; ``scripts/check_passes.py``
statically rejects passes whose declarations are incomplete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Type

from ..core.stages import DesignStage
from .properties import ALL_PROPERTIES, SecurityProperty

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.composition import Design
    from ..netlist import Netlist
    from .manager import FlowContext


def _propset(props: Iterable) -> FrozenSet[SecurityProperty]:
    out = frozenset(props)
    for p in out:
        if not isinstance(p, SecurityProperty):
            raise TypeError(f"not a SecurityProperty: {p!r}")
    return out


@dataclass(frozen=True)
class Effects:
    """A pass's declared action on each tracked security property.

    ``preserves``  — the pass provably cannot destroy the property;
    ``establishes`` — the pass is meant to make the property hold
    (the manager checks it right after the pass to confirm);
    ``invalidates`` — the pass may destroy the property; if it held
    before the pass, the manager schedules a re-check.

    The three sets must be disjoint; a pass with an *undeclared*
    property is treated as invalidating it (conservative), and flagged
    by the static audit.
    """

    preserves: FrozenSet[SecurityProperty] = frozenset()
    establishes: FrozenSet[SecurityProperty] = frozenset()
    invalidates: FrozenSet[SecurityProperty] = frozenset()

    def __post_init__(self) -> None:
        if (self.preserves & self.establishes
                or self.preserves & self.invalidates
                or self.establishes & self.invalidates):
            raise ValueError("effects sets must be disjoint")

    @property
    def declared(self) -> FrozenSet[SecurityProperty]:
        return self.preserves | self.establishes | self.invalidates

    @property
    def undeclared(self) -> FrozenSet[SecurityProperty]:
        return frozenset(ALL_PROPERTIES) - self.declared

    def classify(self, prop: SecurityProperty) -> str:
        """'preserves' | 'establishes' | 'invalidates' for ``prop``.

        Undeclared properties classify as ``'invalidates'`` — the safe
        default the paper's re-verification loop demands.
        """
        if prop in self.preserves:
            return "preserves"
        if prop in self.establishes:
            return "establishes"
        return "invalidates"

    def as_dict(self) -> Dict[str, list]:
        """JSON-friendly view for :class:`~repro.flow.manager.FlowTrace`."""
        return {
            "preserves": sorted(p.value for p in self.preserves),
            "establishes": sorted(p.value for p in self.establishes),
            "invalidates": sorted(p.value for p in self.invalidates),
        }


def effects(preserves: Iterable = (), establishes: Iterable = (),
            invalidates: Iterable = ()) -> Effects:
    """Explicit effect declaration (sets must jointly cover everything
    for the static audit to accept the pass)."""
    return Effects(_propset(preserves), _propset(establishes),
                   _propset(invalidates))


def preserves_all(establishes: Iterable = (),
                  invalidates: Iterable = ()) -> Effects:
    """Everything not named is declared preserved (analysis passes,
    provably-local rewrites)."""
    named = _propset(establishes) | _propset(invalidates)
    return Effects(frozenset(ALL_PROPERTIES) - named,
                   _propset(establishes), _propset(invalidates))


def conservative(establishes: Iterable = (),
                 preserves: Iterable = ()) -> Effects:
    """Everything not named is declared invalidated — the paper's
    non-incremental "re-run everything" loop, used for transforms
    nobody has proven anything about."""
    named = _propset(establishes) | _propset(preserves)
    return Effects(_propset(preserves), _propset(establishes),
                   frozenset(ALL_PROPERTIES) - named)


@dataclass
class PassResult:
    """Structured outcome of one pass application.

    ``design`` is set when the pass replaced the design wholesale
    (masking, WDDL, locking: new netlist + new stimulus interface);
    in-place passes leave it ``None`` and mutate the netlist they were
    handed.  ``details`` carries per-pass metrics (scalar values are
    kept in the pass's :class:`~repro.flow.manager.FlowTrace` entry);
    ``summary`` is the one-line human trace entry.
    """

    pass_name: str
    rewrites: int = 0
    summary: str = ""
    details: Dict[str, object] = field(default_factory=dict)
    design: Optional["Design"] = None


class Pass:
    """Base class for all registered flow transforms.

    Subclasses set ``name`` (registry key), ``stage`` (the Table II row
    the transform belongs to) and ``effects``, and implement
    :meth:`apply`, which receives the *current netlist* and the flow
    context (``ctx.design``, ``ctx.cache``, ``ctx.placement``,
    ``ctx.seed``) and returns a :class:`PassResult`.
    """

    name: str = ""
    stage: Optional[DesignStage] = None
    effects: Optional[Effects] = None
    #: Closure ECO passes edit routed geometry only (shields, fillers,
    #: re-routing) — never the netlist.  The static audit holds them to
    #: that contract: they must declare functional equivalence
    #: preserved, establish at least one layout property, and sit in
    #: the physical-synthesis stage.
    is_closure_eco: bool = False

    def apply(self, netlist: "Netlist", ctx: "FlowContext") -> PassResult:
        raise NotImplementedError

    def __repr__(self) -> str:
        stage = self.stage.value if self.stage else "?"
        return f"<Pass {self.name or type(self).__name__} [{stage}]>"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Type[Pass]] = {}


def register_pass(cls: Type[Pass]) -> Type[Pass]:
    """Class decorator: add a Pass subclass to the global registry.

    Registration requires a unique ``name``; the *completeness* of the
    stage/effects declaration is checked by ``scripts/check_passes.py``
    (and the test that imports it) rather than here, so a half-written
    pass fails the audit instead of breaking import.
    """
    if not cls.name:
        raise ValueError(f"pass class {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate pass name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def registered_passes() -> Dict[str, Type[Pass]]:
    """Name -> class view of the registry (copy; mutation-safe)."""
    return dict(_REGISTRY)


def create_pass(name: str, **params) -> Pass:
    """Instantiate a registered pass by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown pass {name!r}; registered: {known}") \
            from None
    return cls(**params)
