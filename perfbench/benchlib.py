"""Pure helpers of the benchmark: percentiles, failure counting and the
seed -> input generators.

Nothing here imports the program under test, so the unit tests in
``test_benchlib.py`` run without it.
"""

from __future__ import annotations

import math
import random

#: Percentiles a timing may be reported at, lowest first.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)

#: A tail percentile is only reported when at least this many samples lie
#: beyond it, so it is not set by one or two outliers.
MIN_BEYOND = 10

LINE_BYTES = 128

#: Lines per payload of the serve workload.  Every size appears equally
#: often in a payload pool, so the mix is the same for every seed and only
#: the bytes, addresses and order change.
SERVE_LINE_SIZES = (16, 32, 48, 64)


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of ``values`` (``q`` in [0, 1])."""
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, _rank(q, len(ordered)) - 1))
    return ordered[rank]


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of quantile ``q`` among ``n`` samples (rounded
    first, so that 0.999 * 10000 is rank 9990, not 9991)."""
    return math.ceil(round(q * n, 9))


def tail_percentile(n: int) -> float | None:
    """Highest of :data:`TAIL_PERCENTILES` with ``MIN_BEYOND`` samples
    beyond it among ``n`` samples, or ``None`` when even p90 has fewer."""
    best = None
    for percentile in TAIL_PERCENTILES:
        beyond = n - _rank(percentile / 100.0, n)
        if beyond >= MIN_BEYOND:
            best = percentile
    return best


def summarize(values) -> dict:
    """Median plus the highest supported tail percentile, with the count."""
    values = list(values)
    if not values:
        return {"n": 0, "p50": 0.0, "tail_percentile": None, "tail": 0.0}
    tail = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": quantile(values, 0.5),
        "tail_percentile": tail,
        "tail": quantile(values, tail / 100.0) if tail is not None else max(values),
    }


def failure_share(attempted: int, failed: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted < 0 or failed < 0 or failed > attempted:
        raise ValueError(f"bad counts: {failed} failed of {attempted} attempted")
    return failed / attempted if attempted else 0.0


def count_outcomes(outcomes) -> tuple[int, int]:
    """``(attempted, failed)`` over an iterable of truthy-when-ok outcomes."""
    attempted = failed = 0
    for ok in outcomes:
        attempted += 1
        if not ok:
            failed += 1
    return attempted, failed


def serve_payloads(seed: int, connection: int, count: int = 64):
    """Deterministic payload pool for one serve connection.

    Returns ``count`` ``(payload, base_address)`` pairs whose line counts
    cycle evenly through :data:`SERVE_LINE_SIZES` in a seeded order.  Payload
    lengths end anywhere inside their last line, so the server's padding
    and ``length`` handling run too.
    """
    sizes = SERVE_LINE_SIZES
    if count % len(sizes):
        raise ValueError(f"count must be a multiple of {len(sizes)}")
    rng = random.Random(f"serve-bulk/{seed}/{connection}")
    lines = list(sizes) * (count // len(sizes))
    rng.shuffle(lines)
    pool = []
    for n_lines in lines:
        length = n_lines * LINE_BYTES - rng.randrange(LINE_BYTES)
        payload = rng.randbytes(length)
        base_address = rng.randrange(1 << 24) * LINE_BYTES
        pool.append((payload, base_address))
    return pool
