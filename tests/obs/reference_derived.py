"""The hand-written derived-field branches ``MetricsRegistry.snapshot``
used before the ``DERIVED_FIELDS`` table, kept verbatim (apart from
reading ``counters``/``timers`` as arguments) as the oracle the table is
checked against."""


def reference_derived(
    counters: dict[str, int], timers: dict[str, dict[str, object]]
) -> dict[str, float]:
    def ratio(numerator: float, denominator: float) -> float | None:
        if not denominator:
            return None
        return numerator / denominator

    hits = counters.get("sim.cache.hits", 0)
    misses = counters.get("sim.cache.misses", 0)
    derived: dict[str, float] = {
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0
    }
    kernel = timers.get("sim.kernel")
    if kernel:
        derived["mean_kernel_seconds"] = kernel["mean_seconds"]
    cell = timers.get("sweep.cell")
    if cell:
        derived["mean_cell_seconds"] = cell["mean_seconds"]
    queries = counters.get("attack.queries")
    if queries and cell:
        queries_per_cell = ratio(queries, cell["count"])
        if queries_per_cell is not None:
            derived["queries_per_cell"] = queries_per_cell
    detection = ratio(
        counters.get("faults.detected", 0), counters.get("faults.injected", 0)
    )
    if detection is not None:
        derived["fault_detection_rate"] = detection
    retry_rate = ratio(
        counters.get("runner.retries", 0), counters.get("runner.attempts", 0)
    )
    if retry_rate is not None:
        derived["runner_retry_rate"] = retry_rate
    ctr = timers.get("crypto.ctr")
    if ctr:
        ctr_rate = ratio(
            counters.get("crypto.ctr.blocks", 0), ctr["total_seconds"]
        )
        if ctr_rate:
            derived["crypto_ctr_blocks_per_second"] = ctr_rate
    gmac = timers.get("crypto.gmac")
    if gmac:
        gmac_rate = ratio(
            counters.get("crypto.gmac.tags", 0), gmac["total_seconds"]
        )
        if gmac_rate:
            derived["crypto_gmac_tags_per_second"] = gmac_rate
    # Serving front end (docs/serving.md; populated by `repro serve`).
    request = timers.get("serve.request")
    if request:
        derived["serve_request_p50_seconds"] = request["p50_seconds"]
        derived["serve_request_p99_seconds"] = request["p99_seconds"]
    batch_mean = ratio(
        counters.get("serve.batch.requests", 0),
        counters.get("serve.batches", 0),
    )
    if batch_mean is not None:
        derived["serve_batch_mean_requests"] = batch_mean
    admitted = counters.get("serve.requests.total")
    if admitted:
        derived["serve_rejection_rate"] = (
            counters.get("serve.requests.rejected.backpressure", 0)
            + counters.get("serve.requests.rejected.quota", 0)
        ) / admitted
    batch = timers.get("serve.batch")
    if batch:
        lines_rate = ratio(
            counters.get("serve.lines.sealed", 0)
            + counters.get("serve.lines.unsealed", 0)
            + counters.get("serve.lines.verified", 0),
            batch["total_seconds"],
        )
        if lines_rate:
            derived["serve_lines_per_second"] = lines_rate
    return derived
