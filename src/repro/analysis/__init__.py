"""Project-specific static analysis and runtime concurrency witnesses.

The constant-delay guarantees this repo reproduces survive only because
of engineering invariants that no single test enumerates: the lock
hierarchy declared in :data:`repro.concurrency.LOCK_ORDER`, seed-stable
hashing (a ``PYTHONHASHSEED``-independent digest, never builtin
``hash()``, on sharding/signature paths), monotonic deadlines (no
wall-clock reads in the core), ``finally``-guarded shared-memory
publish/unlink, and an exception taxonomy the serving layer maps onto
HTTP codes. This package machine-checks them, twice over:

* :mod:`repro.analysis.lint` — an AST-walking lint framework whose
  rules (:mod:`repro.analysis.rules`) encode the invariants statically;
  surfaced as ``repro lint`` and an enforced CI job.
* :mod:`repro.analysis.witness` — a runtime lock-order witness that
  installs into the :func:`repro.concurrency.set_lock_witness` seam,
  records every held-set → acquired edge into a global lock graph, and
  reports potential-deadlock cycles even when no deadlock triggered.
"""

from .lint import (  # noqa: F401
    Finding,
    LintReport,
    lint_paths,
    load_baseline,
    run_lint,
)
from .witness import LockOrderWitness, LockViolation  # noqa: F401

__all__ = [
    "Finding",
    "LintReport",
    "lint_paths",
    "load_baseline",
    "run_lint",
    "LockOrderWitness",
    "LockViolation",
]
