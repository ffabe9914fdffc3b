"""Deterministic fault injection for the parallel execution layers.

Chaos testing the recovery ladder needs faults that are *reproducible*:
"worker 1 hard-crashes at the shard stage on the first attempt" must
mean exactly that, every run, on every backend. A :class:`FaultPlan` is
a seeded, picklable list of :class:`FaultSpec` triggers matched by
``(site, worker, attempt)``:

* ``crash`` — a hard worker death: ``os._exit`` when fired inside a
  pool subprocess (producing a real
  :class:`~concurrent.futures.process.BrokenProcessPool` in the parent),
  a :class:`WorkerCrashError` when fired in-process (thread/serial
  backends cannot kill the interpreter they share with the test).
* ``raise`` — an ordinary worker exception (:class:`FaultInjected`).
* ``delay`` — a ``time.sleep`` of *n* milliseconds (for racing
  shutdowns and deadline checkpoints against slow shards).

**Sites** are the named checkpoints the execution layers expose:
``"shard"`` (shard materialization workers, fired with the worker
index) and the parent-side phase names ``"grounding"`` /
``"dispatch"`` / ``"merge"`` consulted via
:func:`repro.runtime.fault_checkpoint`.

**Attempts** make recovery testable without global mutable state: the
dispatcher passes its retry round (0 = first try) into every fire, and a
spec with ``attempt=0`` fires once and never again — including inside
process workers, where "fired once already" cannot be communicated back.
``attempt=None`` fires on every round (how the tests force the ladder
all the way down to the serial fallback).

Install a plan process-wide with ``with plan.installed(): ...`` (the
dispatcher picks it up via :func:`repro.runtime.active_fault_hook` and
ships it to workers inside task payloads), or pass it explicitly as
``parallel_reduce(..., faults=plan)``.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass

from . import runtime

#: fault kinds a :class:`FaultSpec` can name
CRASH = "crash"
RAISE = "raise"
DELAY = "delay"

#: the exit code a hard-crashed pool subprocess dies with
CRASH_EXIT_CODE = 13


class FaultInjected(RuntimeError):
    """The ordinary exception ``raise`` faults throw in a worker."""


class WorkerCrashError(RuntimeError):
    """The in-process stand-in for a hard worker death.

    ``crash`` faults fired on the thread/serial backends raise this
    instead of killing the interpreter; the recovery ladder treats it
    exactly like a :class:`~concurrent.futures.process.BrokenProcessPool`
    shard loss.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One trigger: fire *kind* at *site* for *worker* on *attempt*.

    ``worker=None`` matches any worker index (and parent-side
    checkpoints, which fire with ``worker=None``); ``attempt=None``
    matches every retry round. ``delay_ms`` applies to ``delay`` kinds;
    ``message`` travels into the raised exception.
    """

    kind: str
    site: str
    worker: "int | None" = None
    attempt: "int | None" = 0
    delay_ms: float = 0.0
    message: str = "injected fault"

    def matches(
        self, site: str, worker: "int | None", attempt: int
    ) -> bool:
        """Does this spec trigger at ``(site, worker, attempt)``?"""
        if self.site != site:
            return False
        if self.worker is not None and self.worker != worker:
            return False
        if self.attempt is not None and self.attempt != attempt:
            return False
        return True


class FaultPlan:
    """A seeded, picklable set of fault triggers.

    Build declaratively (``FaultPlan().crash(site="shard", worker=1)``)
    or pseudo-randomly from a seed (:meth:`from_seed` — the chaos
    matrix's generator). The plan records its creating pid so ``crash``
    faults can distinguish "I am a pool subprocess" (hard ``os._exit``)
    from "I share the installer's interpreter" (raise
    :class:`WorkerCrashError`). ``fired`` accumulates the
    ``(site, worker, attempt, kind)`` events observed *in this process*
    (subprocess fires are observable only as broken pools).
    """

    def __init__(self, seed: int = 0, specs: "tuple | list" = ()) -> None:
        self.seed = seed
        self.specs: list[FaultSpec] = list(specs)
        self.origin_pid = os.getpid()
        self.fired: list[tuple] = []

    # ---- declarative builders ---------------------------------------- #

    def crash(
        self,
        site: str = "shard",
        worker: "int | None" = None,
        attempt: "int | None" = 0,
    ) -> "FaultPlan":
        """Add a hard-crash trigger; returns ``self`` for chaining."""
        self.specs.append(FaultSpec(CRASH, site, worker, attempt))
        return self

    def delay(
        self,
        ms: float,
        site: str = "shard",
        worker: "int | None" = None,
        attempt: "int | None" = 0,
    ) -> "FaultPlan":
        """Add a sleep-for-*ms* trigger; returns ``self`` for chaining."""
        self.specs.append(FaultSpec(DELAY, site, worker, attempt, delay_ms=ms))
        return self

    def raise_in(
        self,
        site: str,
        worker: "int | None" = None,
        attempt: "int | None" = 0,
        message: str = "injected fault",
    ) -> "FaultPlan":
        """Add an exception trigger; returns ``self`` for chaining."""
        self.specs.append(FaultSpec(RAISE, site, worker, attempt, message=message))
        return self

    @classmethod
    def from_seed(
        cls,
        seed: int,
        workers: int = 2,
        sites: "tuple[str, ...]" = ("shard",),
        kinds: "tuple[str, ...]" = (CRASH, RAISE, DELAY),
    ) -> "FaultPlan":
        """One pseudo-random single-fault plan, fully determined by *seed*.

        The chaos suite sweeps seeds to cover the (kind × worker × site)
        space without hand-writing every combination; the same seed
        always yields the same fault.
        """
        rng = random.Random(seed)
        kind = rng.choice(list(kinds))
        site = rng.choice(list(sites))
        worker = rng.randrange(workers)
        plan = cls(seed=seed)
        if kind == CRASH:
            return plan.crash(site=site, worker=worker)
        if kind == RAISE:
            return plan.raise_in(site, worker=worker)
        return plan.delay(5.0 + rng.random() * 20.0, site=site, worker=worker)

    # ---- firing -------------------------------------------------------- #

    def fire(
        self, site: str, worker: "int | None" = None, attempt: int = 0
    ) -> None:
        """Trigger every matching spec at ``(site, worker, attempt)``.

        Delays sleep, raises raise, crashes ``os._exit`` in pool
        subprocesses and raise :class:`WorkerCrashError` in-process.
        """
        for spec in self.specs:
            if not spec.matches(site, worker, attempt):
                continue
            self.fired.append((site, worker, attempt, spec.kind))
            if spec.kind == DELAY:
                time.sleep(spec.delay_ms / 1000.0)
            elif spec.kind == RAISE:
                raise FaultInjected(
                    f"{spec.message} (site={site!r}, worker={worker}, "
                    f"attempt={attempt})"
                )
            elif spec.kind == CRASH:
                if os.getpid() != self.origin_pid:
                    # a genuine pool subprocess: die hard so the parent
                    # sees a real BrokenProcessPool
                    os._exit(CRASH_EXIT_CODE)
                raise WorkerCrashError(
                    f"injected worker crash (site={site!r}, "
                    f"worker={worker}, attempt={attempt})"
                )

    # ---- installation --------------------------------------------------- #

    def install(self) -> "FaultPlan":
        """Install this plan process-wide (see :mod:`repro.runtime`)."""
        runtime.install_fault_hook(self)
        return self

    def uninstall(self) -> None:
        """Remove this plan if it is the installed one (idempotent)."""
        if runtime.active_fault_hook() is self:
            runtime.clear_fault_hook()

    @contextmanager
    def installed(self):
        """``with plan.installed():`` — install for the block, then clear."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def __reduce__(self):
        """Pickle by fields so plans travel inside worker task payloads.

        ``origin_pid`` is restored verbatim (not re-stamped): that is
        exactly what lets a fired ``crash`` inside a subprocess know it
        is not the installing process.
        """
        return (_rebuild_plan, (self.seed, tuple(self.specs), self.origin_pid))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(seed={self.seed}, specs={self.specs!r})"


def _rebuild_plan(seed: int, specs: tuple, origin_pid: int) -> FaultPlan:
    """Unpickle helper preserving the creating process's pid."""
    plan = FaultPlan(seed=seed, specs=specs)
    plan.origin_pid = origin_pid
    return plan
