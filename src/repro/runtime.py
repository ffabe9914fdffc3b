"""Runtime capability probing and parallel-backend auto-selection.

The parallel cold pipeline (:mod:`repro.yannakakis.parallel`) can run its
shard workers three ways, and the right one depends entirely on the
interpreter and the hardware, not on the query:

* **serial** — one core (or one worker): sharding cannot pay for its own
  overhead, so the caller should run the fused single-pass pipeline
  inline.
* **thread** — a free-threaded CPython build (3.13t+, PEP 703) with the
  GIL actually *off*: threads share the heap, so shard columns travel to
  workers for free and the pool scales with cores.
* **process** — a conventional GIL build with several cores: only
  processes can run Python in parallel, so shards ship through
  :mod:`multiprocessing.shared_memory` segments
  (:class:`~repro.database.columns.SharedShardArena`) instead of pickles.

:func:`runtime_info` probes the interpreter once (``sys._is_gil_enabled``
exists on 3.13+; its absence means the GIL is on) and
:func:`select_backend` turns that probe plus a requested worker count into
a :class:`Backend` decision with a machine-readable reason — the same
matrix DESIGN.md documents. Callers that want to force a backend (the
differential test suites do) bypass selection by naming it:
:func:`resolve_pool` maps the ``pool=`` argument accepted by
:class:`~repro.yannakakis.cdy.CDYEnumerator` — ``"auto"``, ``"thread"``,
``"process"`` or ``"serial"`` — to a :class:`Backend`.

This module also hosts the **fault-injection seam** the parallel workers
consult (:func:`install_fault_hook` / :func:`active_fault_hook` /
:func:`fault_checkpoint`): a process-wide slot for one
:class:`~repro.faultinject.FaultPlan`-shaped object. It lives here — not
in :mod:`repro.faultinject` — so the hot paths depend only on the
runtime module they already import; the plan object itself travels to
process workers inside the task payload (module state does not cross
the pool boundary reliably).
"""

from __future__ import annotations

import os
import sys
import sysconfig
from dataclasses import dataclass

#: backend kinds a :class:`Backend` decision can name
SERIAL = "serial"
THREAD = "thread"
PROCESS = "process"

#: the pool argument value that delegates to :func:`select_backend`
AUTO = "auto"

#: every value accepted for a ``pool=`` argument
POOL_CHOICES = (AUTO, THREAD, PROCESS, SERIAL)


@dataclass(frozen=True)
class RuntimeInfo:
    """One interpreter/hardware probe, the input to backend selection.

    ``free_threaded_build`` is the *compile-time* capability
    (``Py_GIL_DISABLED``); ``gil_enabled`` is the *runtime* state — a
    free-threaded build can still run with the GIL re-enabled
    (``PYTHON_GIL=1``), in which case threads do not scale and the
    process backend wins again.
    """

    python: str
    free_threaded_build: bool
    gil_enabled: bool
    cpu_count: int


def runtime_info() -> RuntimeInfo:
    """Probe the running interpreter and hardware once.

    ``sys._is_gil_enabled`` appeared in 3.13; on older interpreters the
    GIL is unconditionally on. ``cpu_count`` falls back to 1 when the
    platform cannot say.
    """
    probe = getattr(sys, "_is_gil_enabled", None)
    return RuntimeInfo(
        python=sys.version.split()[0],
        free_threaded_build=bool(sysconfig.get_config_var("Py_GIL_DISABLED")),
        gil_enabled=True if probe is None else bool(probe()),
        cpu_count=os.cpu_count() or 1,
    )


@dataclass(frozen=True)
class Backend:
    """A backend decision: which pool kind, how wide, and why.

    ``workers`` is the *effective* worker count — auto-selection collapses
    it to 1 when the hardware cannot run anything in parallel, so callers
    can skip sharding entirely. ``reason`` is a short machine-readable
    sentence recorded in bench reports and surfaced by ``repro serve``.
    """

    kind: str
    workers: int
    reason: str


def select_backend(workers: int, info: RuntimeInfo | None = None) -> Backend:
    """Pick the parallel backend for *workers* on this interpreter.

    The selection matrix (rows: GIL state, columns: cores)::

        workers <= 1  ............................  serial (nothing to split)
        cpu_count == 1  ..........................  serial (fused wins)
        GIL off  (free-threaded), cores >= 2  ....  thread (zero-copy heap)
        GIL on,                   cores >= 2  ....  process (shm segments)
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    if info is None:
        info = runtime_info()
    if workers == 1:
        return Backend(SERIAL, 1, "workers=1: nothing to parallelize")
    if info.cpu_count <= 1:
        return Backend(
            SERIAL,
            1,
            f"cpu_count={info.cpu_count}: serial fused pipeline beats "
            "sharding overhead on one core",
        )
    if not info.gil_enabled:
        return Backend(
            THREAD,
            workers,
            "free-threaded interpreter (GIL off): threads share the heap "
            "zero-copy and scale with cores",
        )
    return Backend(
        PROCESS,
        workers,
        f"GIL on, cpu_count={info.cpu_count}: process pool over "
        "shared-memory shard channels",
    )


def resolve_pool(
    pool: str, workers: int, info: RuntimeInfo | None = None
) -> Backend:
    """Resolve a ``pool=`` argument to a :class:`Backend`.

    ``"auto"`` delegates to :func:`select_backend`; an explicit kind is
    honored verbatim (the differential suites rely on forcing each
    backend regardless of the hardware), except that ``"serial"`` keeps
    the requested worker count so an inline run still exercises the
    shard/merge path deterministically.
    """
    if pool not in POOL_CHOICES:
        raise ValueError(
            f"unknown pool {pool!r}; expected one of {POOL_CHOICES}"
        )
    if workers < 1:
        raise ValueError("workers must be positive")
    if pool == AUTO:
        return select_backend(workers, info)
    return Backend(pool, workers, f"explicit pool={pool!r}")


# --------------------------------------------------------------------- #
# fault-injection seam (see repro.faultinject)

#: the process-wide installed fault plan (None = no faults)
_FAULT_HOOK = None


def install_fault_hook(hook) -> None:
    """Install *hook* as the process-wide fault plan.

    *hook* must expose ``fire(site, worker=None, attempt=0)`` (see
    :class:`~repro.faultinject.FaultPlan`). The parallel dispatcher reads
    the active hook once per build and ships it to workers explicitly;
    installing is test/bench-scoped, not a production path.
    """
    global _FAULT_HOOK
    _FAULT_HOOK = hook


def clear_fault_hook() -> None:
    """Remove the installed fault plan (idempotent)."""
    global _FAULT_HOOK
    _FAULT_HOOK = None


def active_fault_hook():
    """The installed fault plan, or ``None``."""
    return _FAULT_HOOK


def fault_checkpoint(site: str, worker: int | None = None, attempt: int = 0) -> None:
    """Fire the installed plan at a named site (no-op when none is set).

    Parent-side phase checkpoints call this directly; worker functions
    receive the plan in their payload instead, because a process worker
    does not share this module's state with the installer.
    """
    hook = _FAULT_HOOK
    if hook is not None:
        hook.fire(site, worker=worker, attempt=attempt)
