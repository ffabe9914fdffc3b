"""Lint rules encoding the repo's engineering invariants.

Importing this package registers every rule with
:data:`repro.analysis.lint.REGISTRY` (see the ``@register`` decorator).
Rule modules:

* :mod:`~repro.analysis.rules.locks` — lock-rank ordering, global
  cycle detection, no blocking calls under short-held locks, and
  ``make_lock`` adoption (``lock-order`` / ``lock-cycle`` /
  ``lock-blocking`` / ``lock-unknown``).
* :mod:`~repro.analysis.rules.determinism` — no wall-clock reads, no
  unseeded randomness, no builtin ``hash()`` on sharding/signature
  paths — a ``PYTHONHASHSEED``-independent digest instead (``wall-clock``
  / ``unseeded-random`` / ``builtin-hash``).
* :mod:`~repro.analysis.rules.hygiene` — shared-memory publish must be
  unlink-guarded, exception taxonomy (``shm-unguarded`` /
  ``bare-except`` / ``silent-except`` / ``http-mapping``).
"""

from . import determinism, hygiene, locks  # noqa: F401

__all__ = ["locks", "determinism", "hygiene"]
