"""The name-based scheme resolution the simulator used before a
``GpuConfig`` alone decided what gets encrypted, kept verbatim as the
oracle :func:`repro.sim.runner.scheme_config` and
:func:`repro.sim.runner.tag_traffic` are checked against.

``scheme_config`` is the old hand table for the paper's five labels;
registry names went through ``ProtectionScheme.encryption_config``, whose
counter-budget split is reproduced in :func:`registry_gpu_config`.
``traffic_for_scheme`` is the old name-branching tagger, with the
field-by-field ``fully_encrypted``/``plaintext_traffic`` it called.
"""

from repro.core.plan import LayerTraffic
from repro.crypto.counter_cache import CounterCacheConfig
from repro.crypto.engine import PAPER_ENGINE
from repro.crypto.mac import MAC_BYTES
from repro.sim.config import (
    GTX480_CONFIG,
    EncryptionConfig,
    EncryptionMode,
    GpuConfig,
    gtx480_config,
)


def _registry_scheme(name: str):
    from repro.schemes import get_scheme, scheme_names

    if name not in scheme_names():
        return None
    return get_scheme(name)


def registry_gpu_config(scheme, *, counter_cache_kb: int = 96) -> GpuConfig:
    """``ProtectionScheme.gpu_config`` by way of the old
    ``encryption_config``."""
    per_mc = max(
        CounterCacheConfig().block_bytes * 8,
        counter_cache_kb * 1024 // GTX480_CONFIG.num_channels,
    )
    return GTX480_CONFIG.with_encryption(
        EncryptionConfig(
            mode=scheme.mode,
            selective=scheme.selective,
            engine=PAPER_ENGINE,
            counter_cache=scheme.counter_cache_config(size_bytes=per_mc),
            authenticate=scheme.authenticated,
            mac_bytes=scheme.tag_bytes or MAC_BYTES,
            mac_verify_cycles=scheme.mac_verify_cycles or 4,
        )
    )


def scheme_config(name: str, *, counter_cache_kb: int = 96) -> GpuConfig:
    table = {
        "Baseline": (EncryptionMode.NONE, False),
        "Direct": (EncryptionMode.DIRECT, False),
        "Counter": (EncryptionMode.COUNTER, False),
        "SEAL-D": (EncryptionMode.DIRECT, True),
        "SEAL-C": (EncryptionMode.COUNTER, True),
    }
    if name in table:
        mode, selective = table[name]
        return gtx480_config(
            mode, selective=selective, counter_cache_kb=counter_cache_kb
        )
    scheme = _registry_scheme(name)
    if scheme is None:
        raise ValueError(f"unknown scheme {name!r}")
    return registry_gpu_config(scheme, counter_cache_kb=counter_cache_kb)


def fully_encrypted(traffic: LayerTraffic) -> LayerTraffic:
    return LayerTraffic(
        name=traffic.name,
        kind=traffic.kind,
        macs=traffic.macs,
        weight_bytes_encrypted=traffic.weight_bytes_encrypted + traffic.weight_bytes_plain,
        weight_bytes_plain=0,
        input_bytes_encrypted=traffic.input_bytes_encrypted + traffic.input_bytes_plain,
        input_bytes_plain=0,
        output_bytes_encrypted=traffic.output_bytes_encrypted + traffic.output_bytes_plain,
        output_bytes_plain=0,
        gemm_m=traffic.gemm_m,
        gemm_n=traffic.gemm_n,
        gemm_k=traffic.gemm_k,
    )


def plaintext_traffic(traffic: LayerTraffic) -> LayerTraffic:
    return LayerTraffic(
        name=traffic.name,
        kind=traffic.kind,
        macs=traffic.macs,
        weight_bytes_encrypted=0,
        weight_bytes_plain=traffic.weight_bytes_encrypted + traffic.weight_bytes_plain,
        input_bytes_encrypted=0,
        input_bytes_plain=traffic.input_bytes_encrypted + traffic.input_bytes_plain,
        output_bytes_encrypted=0,
        output_bytes_plain=traffic.output_bytes_encrypted + traffic.output_bytes_plain,
        gemm_m=traffic.gemm_m,
        gemm_n=traffic.gemm_n,
        gemm_k=traffic.gemm_k,
    )


def traffic_for_scheme(traffic: LayerTraffic, scheme: str) -> LayerTraffic:
    if scheme in ("Direct", "Counter"):
        return fully_encrypted(traffic)
    if scheme == "Baseline":
        return plaintext_traffic(traffic)
    if scheme not in ("SEAL-D", "SEAL-C"):
        registered = _registry_scheme(scheme)
        if registered is not None and not registered.selective:
            return fully_encrypted(traffic)
    return traffic  # selective schemes keep the plan's split
