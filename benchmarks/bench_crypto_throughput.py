"""Crypto datapath throughput: scalar oracle vs the vectorized fast path.

Batched CTR encryption and GMAC tagging of memory lines through both
backends of :mod:`repro.crypto.fastpath`, instrumented by the ``crypto.*``
timers/counters of :mod:`repro.obs.metrics`.  The recorded artefact pins
the claim: the NumPy T-table/Shoup-table datapath sustains at least
**60× the CTR blocks/sec** and **25× the GMAC tags/sec** of the
pure-Python oracle already at quick scale (the gap widens with batch
size).

Both backends run the *identical* workload — same key, addresses,
counters, and plaintext lines — so the blocks/sec ratio is a pure
implementation comparison; the conformance suite separately guarantees
the outputs are byte-identical.
"""

from repro.crypto.mac import LineAuthenticator
from repro.crypto.modes import CounterModeEncryptor
from repro.eval.reporting import ascii_table
from repro.obs.metrics import MetricsRegistry, set_metrics

LINE_BYTES = 128
KEY = bytes(range(16))


def _throughput(backend: str, n_lines: int, repeats: int) -> dict:
    """Encrypt + tag ``n_lines`` lines ``repeats`` times on one backend,
    measured through a private metrics registry."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        encryptor = CounterModeEncryptor(KEY, backend=backend)
        authenticator = LineAuthenticator(KEY, backend=backend)
        addresses = [0x1000_0000 + index * LINE_BYTES for index in range(n_lines)]
        counters = [index + 1 for index in range(n_lines)]
        lines = [
            bytes((index + offset) & 0xFF for offset in range(LINE_BYTES))
            for index in range(n_lines)
        ]
        for _ in range(repeats):
            ciphertexts = encryptor.encrypt_lines(addresses, counters, lines)
            authenticator.tag_lines(addresses, counters, ciphertexts)
    finally:
        set_metrics(previous)
    snapshot = registry.snapshot()
    derived = snapshot["derived"]
    return {
        "backend": backend,
        "ctr_blocks": snapshot["counters"]["crypto.ctr.blocks"],
        "ctr_seconds": snapshot["timers"]["crypto.ctr"]["total_seconds"],
        "ctr_blocks_per_second": derived["crypto_ctr_blocks_per_second"],
        "gmac_tags": snapshot["counters"]["crypto.gmac.tags"],
        "gmac_seconds": snapshot["timers"]["crypto.gmac"]["total_seconds"],
        "gmac_tags_per_second": derived["crypto_gmac_tags_per_second"],
    }


def test_crypto_throughput(benchmark, record_report, record_metrics, bench_scale):
    full = bench_scale == "full"
    n_lines = 256 if full else 64
    repeats = 5 if full else 3

    def sweep():
        return {
            backend: _throughput(backend, n_lines, repeats)
            for backend in ("scalar", "vector")
        }

    results = benchmark.pedantic(sweep, iterations=1, rounds=1)
    ctr_speedup = (
        results["vector"]["ctr_blocks_per_second"]
        / results["scalar"]["ctr_blocks_per_second"]
    )
    gmac_speedup = (
        results["vector"]["gmac_tags_per_second"]
        / results["scalar"]["gmac_tags_per_second"]
    )

    rows = [
        (
            result["backend"],
            result["ctr_blocks"],
            f"{result['ctr_blocks_per_second']:,.0f}",
            result["gmac_tags"],
            f"{result['gmac_tags_per_second']:,.0f}",
        )
        for result in results.values()
    ]
    report = (
        f"crypto datapath throughput ({n_lines} lines x {repeats} passes, "
        f"{LINE_BYTES} B lines)\n"
        + ascii_table(
            ("backend", "CTR blocks", "CTR blocks/s", "GMAC tags", "tags/s"),
            rows,
        )
        + f"\nvector/scalar speedup: CTR {ctr_speedup:.1f}x, "
        f"GMAC {gmac_speedup:.1f}x (floors: 60x CTR, 25x GMAC)"
    )
    record_report("crypto_throughput", report)
    record_metrics(
        "crypto_throughput",
        payload={
            "n_lines": n_lines,
            "repeats": repeats,
            "line_bytes": LINE_BYTES,
            "results": results,
            "ctr_speedup": ctr_speedup,
            "gmac_speedup": gmac_speedup,
        },
    )

    # Identical workloads: the block/tag counts must match exactly.
    assert results["scalar"]["ctr_blocks"] == results["vector"]["ctr_blocks"]
    assert results["scalar"]["gmac_tags"] == results["vector"]["gmac_tags"]
    # About half the measured ratios (medians ~118x CTR, ~47x GMAC), leaving
    # headroom for slow or noisy machines.
    assert ctr_speedup >= 60.0, f"vector CTR only {ctr_speedup:.1f}x scalar"
    assert gmac_speedup >= 25.0, f"vector GMAC only {gmac_speedup:.1f}x scalar"
