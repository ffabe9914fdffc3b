"""Determinism rules: monotonic time only, seeded randomness, stable
hashing on every sharding/signature path.

The enumeration guarantees are only testable because runs are
reproducible: deadlines are monotonic (:class:`repro.resilience.Deadline`
wraps ``time.monotonic``), generators and the fault harness take
explicit seeds, and anything hashed on a shard/signature/token path
uses a ``PYTHONHASHSEED``-independent digest (``hashlib``, as the
cursor-token fingerprints do, or ``zlib.crc32`` over a canonical byte
encoding). Builtin ``hash()`` of strings changes per process, so it
would give one value a different hash on every run — and across the
*parent and its pool workers* within one run.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..lint import Finding, ModuleFile, Rule, register
from .locks import _call_name

#: wall-clock reads banned in the core (monotonic clocks are fine)
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}

#: ``random.<fn>()`` module-level calls = the shared, unseeded generator
_RANDOM_MODULE_FNS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "gauss",
    "getrandbits",
    "randbytes",
    "seed",
}

#: modules where tuple/signature hashing feeds sharding or cache keys —
#: builtin ``hash()`` is banned here outright
HASH_SENSITIVE_PATHS = frozenset(
    {
        "src/repro/database/partition.py",
        "src/repro/database/columns.py",
        "src/repro/yannakakis/parallel.py",
        "src/repro/engine/signature.py",
        "src/repro/query/qig.py",
        "src/repro/serving/cursor.py",
    }
)


def _in_core(module: ModuleFile) -> bool:
    return module.rel_path.startswith("src/repro/")


@register
class WallClockRule(Rule):
    """No ``time.time()`` / ``datetime.now()`` in ``src/repro`` — use
    ``time.monotonic`` via :class:`~repro.resilience.Deadline`."""

    id = "wall-clock"
    description = "wall-clock reads in the core break deadline determinism"

    def check(self, module: ModuleFile) -> Iterable[Finding]:
        if not _in_core(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                fn = _call_name(node.func)
                if fn in _WALL_CLOCK:
                    yield module.finding(
                        self.id,
                        node,
                        f"wall-clock read {fn}() in core code; use the "
                        "monotonic Deadline clock (repro.resilience)",
                    )


@register
class UnseededRandomRule(Rule):
    """Randomness must come from an explicitly seeded ``random.Random``
    (or ``secrets`` for ids, which makes no reproducibility claim)."""

    id = "unseeded-random"
    description = "unseeded randomness breaks run reproducibility"

    def check(self, module: ModuleFile) -> Iterable[Finding]:
        if not _in_core(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = _call_name(node.func)
            if fn.startswith("random.") and fn.split(".", 1)[1] in (
                _RANDOM_MODULE_FNS
            ):
                yield module.finding(
                    self.id,
                    node,
                    f"{fn}() uses the shared unseeded generator; "
                    "construct random.Random(seed) explicitly",
                )
            elif fn in ("Random", "random.Random") and not (
                node.args or node.keywords
            ):
                yield module.finding(
                    self.id,
                    node,
                    "random.Random() without a seed argument; every "
                    "generator in the core takes an explicit seed",
                )


@register
class BuiltinHashRule(Rule):
    """No builtin ``hash()`` on sharding/signature paths."""

    id = "builtin-hash"
    description = (
        "builtin hash() is PYTHONHASHSEED-dependent; sharding and "
        "signature paths must use a PYTHONHASHSEED-independent digest"
    )

    def check(self, module: ModuleFile) -> Iterable[Finding]:
        if module.rel_path not in HASH_SENSITIVE_PATHS:
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield module.finding(
                    self.id,
                    node,
                    "builtin hash() on a sharding/signature path; use a "
                    "PYTHONHASHSEED-independent digest (hashlib, or "
                    "zlib.crc32 over a canonical encoding) so the value "
                    "survives PYTHONHASHSEED and process boundaries",
                )
