"""Content-addressed keys for cacheable/checkpointable work units.

Both experiment runners key their work on a sha256 hash of a canonical
JSON encoding of everything the computation depends on: the simulation
cache (:mod:`repro.sim.parallel`) hashes ``(GpuConfig, LayerTraffic,
tile)`` and the security-sweep checkpoints (:mod:`repro.attacks.sweep`)
hash the cell's experiment configuration, seeds, ratio and adversary
variant.  This module is the shared encoding so the two stay consistent:
dataclasses become sorted field dicts, enums their values, tuples become
lists, and everything else must already be JSON-representable (falling
back to ``repr`` keeps exotic values stable rather than unhashable).

>>> from dataclasses import dataclass
>>> @dataclass(frozen=True)
... class Cfg:
...     depth: int
...     tags: tuple
>>> canonical_encode(Cfg(3, ("a", "b")))
{'depth': 3, 'tags': ['a', 'b']}
>>> key = content_key({"cfg": Cfg(3, ("a", "b"))})
>>> key == content_key({"cfg": Cfg(3, ("a", "b"))})
True
>>> key == content_key({"cfg": Cfg(4, ("a", "b"))})
False
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

__all__ = ["canonical_encode", "canonical_json", "content_key"]


def canonical_encode(value: object) -> object:
    """Recursively encode ``value`` into JSON-able primitives for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical_encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [canonical_encode(item) for item in value]
    if isinstance(value, dict):
        return {str(k): canonical_encode(v) for k, v in sorted(value.items())}
    return value


def canonical_json(value: object) -> str:
    """The compact, key-sorted JSON text :func:`content_key` hashes."""
    return json.dumps(
        canonical_encode(value), sort_keys=True, separators=(",", ":"), default=repr
    )


def content_key(payload: object) -> str:
    """sha256 hex digest of the canonical JSON encoding of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()
