"""Frozen simulation cache key: the differential reference for the memo.

This is :func:`repro.sim.parallel.cache_key` as it was before each
distinct config was encoded once: the full :class:`GpuConfig` is
canonically encoded for every unit, and :func:`content_key` then walks the
whole payload a second time.  :func:`canonical_encode` and
:func:`content_key` are frozen with it.  It is kept verbatim as the oracle
``test_cache_key.py`` pins the keys against (they must stay byte-identical,
or every stored simulation result would miss), and as the "before" side of
the key cost in ``benchmarks/bench_sim_throughput.py``.  Do not optimise it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

from repro.sim.workloads import DEFAULT_TILE


def _frozen_encode(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _frozen_encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_frozen_encode(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _frozen_encode(v) for k, v in sorted(value.items())}
    return value


def _frozen_content_key(payload):
    encoded = _frozen_encode(payload)
    blob = json.dumps(encoded, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def frozen_cache_key(config, traffic, tile=DEFAULT_TILE):
    traffic_fields = _frozen_encode(traffic)
    assert isinstance(traffic_fields, dict)
    traffic_fields.pop("name", None)
    return _frozen_content_key(
        {
            "config": _frozen_encode(config),
            "traffic": traffic_fields,
            "tile": tile,
        }
    )
