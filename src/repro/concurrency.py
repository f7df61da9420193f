"""Concurrency annotations consumed by the ``repro.analysis`` lint suite.

The service layer (PR 1) made correctness depend on invisible
conventions: which lock guards which attribute, and in which order locks
may be acquired.  :func:`guarded_by` turns the first convention into a
machine-checkable declaration.  A class states, in its body, which lock
guards an attribute::

    class CaptureLog:
        _events = guarded_by("_cond")
        _closed = guarded_by("_cond")

        def __init__(self) -> None:
            self._cond = threading.Condition()
            self._events = collections.deque()
            self._closed = False

``repro lint`` (rule R001) then verifies that every ``self._events`` /
``self._closed`` access in the class body happens lexically inside a
``with self._cond:`` block.  ``__init__`` is exempt — the object is not
shared before construction completes.

``mutations_only=True`` declares a single-writer attribute: mutations
must hold the lock, bare reads may be lock-free.  ``TableData._columns``
uses this — column arrays are replaced atomically, never resized in
place, so unlocked single-column reads are safe by design.

At runtime the marker is inert: it is a class attribute that the
instance attribute assigned in ``__init__`` shadows.  Reading it before
``__init__`` runs would be a bug regardless of locking, and the marker's
``__repr__`` makes such a bug easy to spot.
"""

from __future__ import annotations


class GuardedBy:
    """Class-body marker: the named lock guards this attribute.

    Attributes:
        lock: attribute name of the guarding lock on the same instance
            (e.g. ``"_lock"`` for a lock stored as ``self._lock``).
        mutations_only: if True, only writes (attribute assignment,
            augmented assignment, ``self.attr[...] = ...``, ``del``)
            require the lock; reads are declared lock-free.
    """

    __slots__ = ("lock", "mutations_only")

    def __init__(self, lock: str, mutations_only: bool = False) -> None:
        if not lock or not isinstance(lock, str):
            raise ValueError(f"guarded_by needs a lock attribute name, got {lock!r}")
        self.lock = lock
        self.mutations_only = mutations_only

    def __repr__(self) -> str:
        extra = ", mutations_only=True" if self.mutations_only else ""
        return f"guarded_by({self.lock!r}{extra})"


def guarded_by(lock: str, *, mutations_only: bool = False) -> GuardedBy:
    """Declare that ``lock`` (an attribute of the same instance) guards
    the annotated attribute.  See the module docstring for semantics and
    :mod:`repro.analysis` rule R001 for the checker."""
    return GuardedBy(lock, mutations_only=mutations_only)


class PlanSource:
    """Class-body marker: this attribute feeds plan choice and exposes a
    monotone version.

    Attributes:
        prop: name of the version property on the attribute's value
            (default ``"version"``; ``CorrectionStore.version`` is the
            canonical example).

    Rule R009 requires that the declared version is read somewhere on
    the optimize path and folded into every request handed to the plan
    cache — otherwise corrected and uncorrected plans could alias one
    cache entry.  Like :class:`GuardedBy` the marker is runtime-inert:
    the instance attribute assigned in ``__init__`` shadows it.
    """

    __slots__ = ("prop",)

    def __init__(self, prop: str = "version") -> None:
        if not prop or not isinstance(prop, str):
            raise ValueError(f"plan_source needs a property name, got {prop!r}")
        self.prop = prop

    def __repr__(self) -> str:
        return f"plan_source({self.prop!r})"


def plan_source(prop: str = "version") -> PlanSource:
    """Declare that the annotated attribute is a versioned plan-relevant
    source whose ``prop`` must be folded into the plan-cache key.  See
    :mod:`repro.analysis` rule R009 for the checker."""
    return PlanSource(prop)


class LifecycleProtocol:
    """Class-body marker: instances of this class follow a typestate
    protocol.

    A protocol is a tiny state machine — named states, an initial state,
    and operations (method names) that move an object between states or
    are only legal in some states.  The declaration is consumed by the
    interprocedural typestate engine (:mod:`repro.analysis.typestate`)
    which drives rules R012–R015; see ``docs/analysis.md`` for the spec
    grammar and per-rule semantics of each keyword.  Like
    :class:`GuardedBy` the marker is runtime-inert.
    """

    __slots__ = (
        "name",
        "rule",
        "states",
        "initial",
        "transitions",
        "allowed",
        "operations",
        "final",
        "requires",
        "carrier",
        "store",
        "guarded",
        "reads",
        "visibility",
        "drains",
        "requires_before",
        "delegate",
    )

    def __init__(
        self,
        name: str,
        rule: str,
        states: "tuple[str, ...]",
        initial: str,
        transitions: "dict[str, tuple[str, str]] | None" = None,
        allowed: "dict[str, tuple[str, ...]] | None" = None,
        operations: "tuple[str, ...]" = (),
        final: "str | None" = None,
        requires: "tuple[str, ...]" = (),
        carrier: "str | None" = None,
        store: "str | None" = None,
        guarded: "tuple[str, ...]" = (),
        reads: "tuple[str, ...]" = (),
        visibility: "str | None" = None,
        drains: "dict[str, tuple[str, ...]] | None" = None,
        requires_before: "dict[str, str] | None" = None,
        delegate: "str | None" = None,
    ) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"protocol needs a name, got {name!r}")
        if not (
            isinstance(rule, str)
            and len(rule) == 4
            and rule.startswith("R")
            and rule[1:].isdigit()
        ):
            raise ValueError(f"protocol rule must look like 'R012', got {rule!r}")
        if not states or not all(isinstance(s, str) and s for s in states):
            raise ValueError(f"protocol states must be non-empty names, got {states!r}")
        if initial not in states:
            raise ValueError(f"initial state {initial!r} is not one of {states!r}")
        transitions = dict(transitions or {})
        for op, edge in transitions.items():
            if not (isinstance(edge, tuple) and len(edge) == 2):
                raise ValueError(
                    f"transition for {op!r} must be a (from, to) pair, got {edge!r}"
                )
            if edge[0] not in states or edge[1] not in states:
                raise ValueError(
                    f"transition for {op!r} uses undeclared states: {edge!r}"
                )
        allowed = dict(allowed or {})
        for state in allowed:
            if state not in states:
                raise ValueError(f"allowed-map state {state!r} not in {states!r}")
        if final is not None and final not in states:
            raise ValueError(f"final state {final!r} is not one of {states!r}")
        self.name = name
        self.rule = rule
        self.states = tuple(states)
        self.initial = initial
        self.transitions = transitions
        self.allowed = {state: tuple(ops) for state, ops in allowed.items()}
        self.operations = tuple(operations)
        self.final = final
        self.requires = tuple(requires)
        self.carrier = carrier
        self.store = store
        self.guarded = tuple(guarded)
        self.reads = tuple(reads)
        self.visibility = visibility
        self.drains = {op: tuple(via) for op, via in (drains or {}).items()}
        self.requires_before = dict(requires_before or {})
        self.delegate = delegate

    def __repr__(self) -> str:
        return f"protocol({self.name!r}, rule={self.rule!r}, states={self.states!r})"


def protocol(
    name: str,
    *,
    rule: str,
    states: "tuple[str, ...]",
    initial: str,
    transitions: "dict[str, tuple[str, str]] | None" = None,
    allowed: "dict[str, tuple[str, ...]] | None" = None,
    operations: "tuple[str, ...]" = (),
    final: "str | None" = None,
    requires: "tuple[str, ...]" = (),
    carrier: "str | None" = None,
    store: "str | None" = None,
    guarded: "tuple[str, ...]" = (),
    reads: "tuple[str, ...]" = (),
    visibility: "str | None" = None,
    drains: "dict[str, tuple[str, ...]] | None" = None,
    requires_before: "dict[str, str] | None" = None,
    delegate: "str | None" = None,
) -> LifecycleProtocol:
    """Declare a lifecycle protocol for instances of the enclosing class.

    The keyword surface is the full spec grammar (states, transitions,
    per-state allowed operations, guard/visibility/drain obligations);
    rules R012–R015 each claim the protocols declared with their
    ``rule=`` id.  See :mod:`repro.analysis.typestate` for the engine and
    ``docs/analysis.md`` for worked examples."""
    return LifecycleProtocol(
        name,
        rule,
        states,
        initial,
        transitions=transitions,
        allowed=allowed,
        operations=operations,
        final=final,
        requires=requires,
        carrier=carrier,
        store=store,
        guarded=guarded,
        reads=reads,
        visibility=visibility,
        drains=drains,
        requires_before=requires_before,
        delegate=delegate,
    )
