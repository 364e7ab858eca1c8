"""End-to-end benchmark of the SEAL reproduction: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` records why each was chosen):

``serve-bulk``
    ``repro serve --workers 1`` with ``--telemetry-out`` and two tenants
    under a quota the load never reaches; payloads of 16-64 lines.
    Per-line costs dominate; pool dispatch and the telemetry path run.
``sim-fig7``
    ``compare_schemes`` on vgg16, resnet18 and resnet34 under the paper's
    five schemes (``jobs=1``, no cross-call cache): plan, lowering,
    ``compile_streams`` and the native kernel.
``sweep-vgg16``
    ``run_sweep`` on a reduced-width vgg16 (one victim; white-box,
    black-box and SEAL cells at three ratios, transfer measured,
    ``jobs=1``): the nn autograd stack and the attacks.

The serve workload starts the server in its own process and drives it
from this process: a closed loop over two connections, each with one
request in flight, repeating ``seal`` -> ``unseal`` of the result ->
``verify``.  The work is fixed: :data:`SERVE_CYCLE_RATE` cycles per
connection per second of ``--seconds``, so the phase lasts about
``--seconds`` on a 2-vCPU x86 host and less on a faster program.  The
simulation and the sweep run in a host process (``compute_host.py``) that
runs the whole jobs best filling ``--seconds``, but at least four
simulation jobs or two sweep jobs.

End-to-end metrics (``--trace 0``), every workload:

* ``setup_s`` - median of several set-ups, taken before, between and
  after the timed work so that they span the run: launch to the first
  warm answer on every connection (pool worker included) for serve;
  launch to imports done and the native kernel loaded otherwise;
* ``peak_rss_mb`` - peak resident memory of the processes doing the work
  (server plus pool worker; the compute host);
* ``p50_ms`` / ``p90_ms`` - per operation: a request for serve (client
  observed), a simulation unit (one layer under one scheme) for
  ``sim-fig7``, a sweep cell for ``sweep-vgg16``.  Every job repeats the
  same operations, so a compute operation's time is its median over the
  run's jobs;
* ``throughput_rps`` - operations completed per second;
* ``run_s`` - wall time of the fixed serve phase, or of one whole
  simulation or sweep job.

Latency and throughput are medians over five equal spans of the serve
phase, and throughput and ``run_s`` over the jobs of a compute run, so
that a slow spell of the host covering a minority of the run does not
set them.

``--trace 1`` splits the work between an untraced phase and a phase with
the layer wrappers of ``probes.py`` installed, and prints the per-layer
metrics plus ``trace.overhead_share`` (traced over untraced, minus one)
and ``split.coverage`` (the share of ``run_s`` the layer split covers).

Every run first builds the native simulator kernel into
``<build>/simkernel`` (``<build>`` is ``$CARGO_TARGET_DIR`` or
``.bench_build``; cached by source digest, so only a changed kernel
compiles), untimed; a run in which the kernel does not load, or the
simulator falls back to its pure-Python loop, fails.  BLAS threads are
pinned to one.

Correctness: every served ciphertext and tag must equal an in-process
``seal-se`` sealer's (same key, the server-assigned counter): all of them
on the default vector backend, and a seeded subset of at least
:data:`SCALAR_CHECK_LINES` lines on the independent scalar backend, so
that a defect shared by the server's vector path and the vector
reference still shows.  Every ``unseal`` must return the payload and
every ``verify`` must pass; the simulated cycles and normalized IPC must
equal ``expected.json`` exactly; the sweep cells must repeat across jobs
and, at seed 0, equal ``expected.json``.  A wrong output counts as a
failed operation, as do error responses (quota, backpressure) and client
timeouts.
"""

from __future__ import annotations

import argparse
import asyncio
import base64
import contextlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

WORKLOADS = ("serve-bulk", "sim-fig7", "sweep-vgg16")

#: Set-up samples per run; ``setup_s`` is their median.  Serve: launches
#: before the load (the last one serves it) and after it.  Compute: host
#: launches at each gap of the run - before the first job (plus the host
#: that runs the jobs), between jobs and after the last.
SERVE_SETUPS = (3, 3)
COMPUTE_SETUPS_PER_GAP = 2

#: Closed-loop cycles per connection per second of ``--seconds``.
SERVE_CYCLE_RATE = 45

#: Served lines re-sealed on the scalar crypto backend per run (whole
#: seals, picked by the seed, until at least this many lines).
SCALAR_CHECK_LINES = 1024

#: The layer split must cover at least this share of ``run_s`` (and not
#: more than all of it, plus timer slack) in a traced run.
SPLIT_COVERAGE = (0.75, 1.02)

#: Serve latency and throughput are medians over this many equal spans.
WINDOWS = 5

#: Seconds a client waits for one response before counting a timeout.
CLIENT_TIMEOUT = 30.0

SERVE_ARGS = ["--workers", "1", "--quota-rate", "1000000", "--quota-burst", "1000000"]
SERVE_TENANTS = ("tenant-a", "tenant-b")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, failed start)."""


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def bench_env(build: Path) -> dict:
    """The environment every process of the benchmark runs in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(Path("src").resolve()),
        REPRO_SIMKERNEL_CACHE=str(build / "simkernel"),
        REPRO_CRYPTO_BACKEND="vector",
        REPRO_SIM_BACKEND="vector",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def prepare(env: dict) -> None:
    """Untimed, every run: compile the bytecode and the native simulator
    kernel (both cached, so this is cheap after the first run), so that
    neither lands in a set-up time."""
    code = (
        "import repro.cli, repro.serve.server, repro.sim.runner, repro.attacks.sweep; "
        "from repro.sim import _native; raise SystemExit(_native.load() is None)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600
    )
    if done.returncode:
        raise BenchError(
            "the program does not import or the native simulator kernel did not "
            f"build: {done.stderr.strip()[-2000:]}"
        )


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------
def b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


class Connection:
    """One NDJSON connection with one request in flight."""

    def __init__(self, reader, writer, tenant: str) -> None:
        self.reader, self.writer, self.tenant = reader, writer, tenant
        self.seq = 0

    async def call(self, op: str, params: dict) -> tuple[float, dict]:
        self.seq += 1
        request_id = str(self.seq)
        line = json.dumps(
            {"id": request_id, "op": op, "tenant": self.tenant, "params": params}
        ).encode() + b"\n"
        start = time.perf_counter()
        self.writer.write(line)
        await self.writer.drain()
        raw = await asyncio.wait_for(self.reader.readline(), CLIENT_TIMEOUT)
        latency = time.perf_counter() - start
        if not raw:
            raise ConnectionError("server closed the connection")
        response = json.loads(raw)
        if response.get("id") != request_id:
            raise ConnectionError(f"response id {response.get('id')} for {request_id}")
        return latency, response

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Op(NamedTuple):
    """One request's outcome: completion time and latency in seconds."""

    op: str
    latency: float
    ok: bool
    code: str
    done: float


class LoadLog:
    """Outcomes of the closed loop, kept for the checks after it."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.seals: list[tuple[bytes, dict]] = []  # payload, seal result
        self.unseals: list[tuple[bytes, str]] = []  # payload, returned b64
        self.problems: list[str] = []

    def note(self, op: str, latency: float, response: dict) -> dict | None:
        ok = bool(response.get("ok"))
        code = "ok" if ok else response.get("error", {}).get("code", "?")
        self.ops.append(Op(op, latency, ok, code, time.perf_counter()))
        return response.get("result") if ok else None


async def run_cycle(conn: Connection, payload: bytes, base: int, log_: LoadLog) -> None:
    """``seal`` -> ``unseal`` -> ``verify`` of one payload."""
    latency, response = await conn.call("seal", {"payload": b64(payload), "base_address": base})
    sealed = log_.note("seal", latency, response)
    if sealed is None:
        return
    log_.seals.append((payload, sealed))
    blob = {
        "ciphertext": sealed["ciphertext"],
        "tags": sealed["tags"],
        "base_address": sealed["base_address"],
        "counter": sealed["counter"],
    }
    latency, response = await conn.call("unseal", dict(blob, length=sealed["length"]))
    opened = log_.note("unseal", latency, response)
    if opened is not None:
        log_.unseals.append((payload, opened["payload"]))
    latency, response = await conn.call("verify", blob)
    verdict = log_.note("verify", latency, response)
    if verdict is not None and not verdict.get("all_ok"):
        log_.problems.append(f"verify rejected an untampered seal: {verdict}")


async def closed_loop(conns, pools, cycles: int, log_: LoadLog) -> tuple[float, float]:
    """Every connection runs ``cycles`` cycles through its payload pool;
    returns the phase's start (``perf_counter``) and wall time."""
    start = time.perf_counter()

    async def client(conn, pool) -> None:
        try:
            for index in range(cycles):
                await run_cycle(conn, *pool[index % len(pool)], log_)
        except (ConnectionError, OSError, asyncio.TimeoutError, ValueError) as error:
            log_.ops.append(Op("lost", 0.0, False, type(error).__name__, time.perf_counter()))
            log_.problems.append(f"connection failed: {error!r}")

    await asyncio.gather(*(client(c, p) for c, p in zip(conns, pools)))
    return start, time.perf_counter() - start


class Server:
    """A ``serve_host.py`` process and its two client connections."""

    def __init__(self, run_dir: Path, tag: str, env: dict, probes: bool) -> None:
        self.env, self.probes = env, probes
        self.report = run_dir / f"{tag}.report.json"
        self.metrics = run_dir / f"{tag}.metrics.json"
        self.stderr = run_dir / f"{tag}.stderr.log"
        self.args = [
            "--metrics-out", str(self.metrics),
            "--telemetry-out", str(run_dir / f"{tag}.telemetry.json"),
            *SERVE_ARGS,
        ]
        self.proc = None
        self.conns: list[Connection] = []

    async def start(self, warm_pools) -> float:
        """Launch, connect and run one warm cycle per connection; returns
        the set-up time."""
        start = time.perf_counter()
        cmd = [sys.executable, str(HERE / "serve_host.py"), "--report", str(self.report)]
        if self.probes:
            cmd.append("--probes")
        with open(self.stderr, "wb") as stderr:
            # Own process group: a kill reaches the pool worker too.
            self.proc = await asyncio.create_subprocess_exec(
                *cmd, "--", *self.args, env=self.env,
                stdout=asyncio.subprocess.PIPE, stderr=stderr, start_new_session=True,
            )
        port = None
        while port is None:
            line = await asyncio.wait_for(self.proc.stdout.readline(), 120)
            if not line:
                raise BenchError(f"server exited early; see {self.stderr}")
            text = line.decode()
            if text.startswith("repro-serve listening on "):
                port = int(text.split()[3].rsplit(":", 1)[1])
        for tenant in SERVE_TENANTS:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=1 << 24
            )
            self.conns.append(Connection(reader, writer, tenant))
        warm = LoadLog()
        await asyncio.gather(
            *(run_cycle(c, *pool[0], warm) for c, pool in zip(self.conns, warm_pools))
        )
        if not all(o.ok for o in warm.ops) or warm.problems:
            raise BenchError(f"warm-up failed: {warm.ops} {warm.problems}")
        return time.perf_counter() - start

    async def health(self) -> dict:
        _, response = await self.conns[0].call("health", {})
        return response.get("result", {})

    async def stop(self) -> dict:
        """Shut the server down; returns its host report and metrics."""
        try:
            await self.conns[0].call("shutdown", {})
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass
        for conn in self.conns:
            await conn.close()
        await self._reap(60.0)
        if self.proc.returncode:
            raise BenchError(f"server exited {self.proc.returncode}; see {self.stderr}")
        return {
            "report": json.loads(self.report.read_text()),
            "metrics": json.loads(self.metrics.read_text()),
        }

    async def kill(self) -> None:
        """Stop at once (set-up samples and failures need no clean exit)."""
        for conn in self.conns:
            conn.writer.transport.abort()
        if self.proc is not None:
            await self._reap(0.0)

    async def _reap(self, timeout: float) -> None:
        """Wait up to ``timeout`` for the server to exit, kill what is left
        of its process group and collect it.  (``Process.wait`` alone would
        also wait for a pool worker that still holds the stdout pipe.)"""
        deadline = time.monotonic() + timeout
        while self.proc.returncode is None and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        await self.proc.stdout.read()
        await self.proc.wait()


def check_serve(log_: LoadLog, seed: int) -> int:
    """Byte-compare every seal with an in-process vector sealer, a seeded
    subset also with the scalar one, and every unseal with its payload;
    returns the number of wrong outputs."""
    sys.path.insert(0, str(Path("src").resolve()))
    from repro.serve.server import ServeConfig

    line_bytes = benchlib.LINE_BYTES
    batches = []  # per seal: addresses, counters, lines
    for payload, sealed in log_.seals:
        padded = payload + bytes(-len(payload) % line_bytes)
        offsets = range(0, len(padded), line_bytes)
        batches.append(
            (
                [sealed["base_address"] + o for o in offsets],
                [sealed["counter"]] * len(offsets),
                [padded[o : o + line_bytes] for o in offsets],
            )
        )

    def seal_all(backend: str, indices: list[int]) -> dict[int, tuple[bytes, list[bytes]]]:
        # One batched call over the chosen seals (the sealer is line-wise).
        sealer = ServeConfig(scheme="seal-se", backend=backend).make_sealer()
        merged = [[], [], []]
        for index in indices:
            for column, values in zip(merged, batches[index]):
                column.extend(values)
        ciphertexts, tags = sealer.seal_lines(*merged) if merged[2] else ([], [])
        out, at = {}, 0
        for index in indices:
            n = len(batches[index][2])
            out[index] = (b"".join(ciphertexts[at : at + n]), list(tags[at : at + n]))
            at += n
        return out

    every = list(range(len(log_.seals)))
    subset, lines = [], 0
    for index in random.Random(f"check/{seed}").sample(every, len(every)):
        if lines >= SCALAR_CHECK_LINES:
            break
        subset.append(index)
        lines += len(batches[index][2])
    references = [seal_all("vector", every), seal_all("scalar", sorted(subset))]
    wrong = 0
    for index, (payload, sealed) in enumerate(log_.seals):
        served = (
            base64.b64decode(sealed["ciphertext"]),
            [base64.b64decode(t) for t in sealed["tags"]],
        )
        if sealed["length"] != len(payload) or any(
            index in ref and ref[index] != served for ref in references
        ):
            wrong += 1
    for payload, opened in log_.unseals:
        if base64.b64decode(opened) != payload:
            wrong += 1
    if wrong:
        log_.problems.append(f"{wrong} served outputs differ from the in-process sealers")
    return wrong


async def serve_phase(seed: int, seconds: float, env: dict, run_dir: Path, *, setups: tuple[int, int], probes: bool) -> dict:
    pools = [benchlib.serve_payloads(seed, c) for c in range(2)]
    before, after = setups
    name = "traced" if probes else "plain"
    setup_times = []
    server = None

    async def launch() -> Server:
        nonlocal server
        server = Server(run_dir, f"{name}-{len(setup_times)}", env, probes)
        setup_times.append(await server.start(pools))
        return server

    async def sample() -> None:  # a set-up sample only
        nonlocal server
        await (await launch()).kill()
        server = None

    try:
        for _ in range(before - 1):
            await sample()
        await launch()
        log_ = LoadLog()
        start, wall = await closed_loop(
            server.conns, pools, round(seconds * SERVE_CYCLE_RATE), log_
        )
        health = await server.health()
        stopped = await server.stop()
        server = None
        for _ in range(after):
            await sample()
        log(f"set-up samples {[round(t, 3) for t in setup_times]} s; timed phase {wall:.2f} s")
    finally:
        if server is not None:
            await server.kill()
    started = time.perf_counter()
    wrong = check_serve(log_, seed)
    log(f"checked {len(log_.seals)} seals, {len(log_.unseals)} unseals in {time.perf_counter() - started:.2f} s")
    return {
        "setup": setup_times,
        "start": start,
        "wall": wall,
        "log": log_,
        "wrong": wrong,
        "health": health,
        **stopped,
    }


def windowed(log_: LoadLog, start: float, seconds: float) -> dict:
    """p50, p90 and throughput of each of :data:`WINDOWS` equal spans of
    the phase, each reported as its median over the spans: a slow spell
    of the host that covers less than half the phase does not set them."""
    width = seconds / WINDOWS
    spans: list[list[Op]] = [[] for _ in range(WINDOWS)]
    for o in log_.ops:
        if o.ok:
            spans[min(WINDOWS - 1, int((o.done - start) / width))].append(o)
    spans = [span for span in spans if len(span) > 1]

    def rate(span: list[Op]) -> float:  # completions per second within the span
        return (len(span) - 1) / (span[-1].done - span[0].done)

    def latency(span: list[Op], q: float) -> float:
        return benchlib.quantile([o.latency for o in span], q)

    return {
        "p50_ms": statistics.median(latency(span, 0.5) for span in spans) * 1e3,
        "p90_ms": statistics.median(latency(span, 0.9) for span in spans) * 1e3,
        "throughput_rps": statistics.median(rate(span) for span in spans),
    }


def serve_results(phase: dict) -> dict:
    log_: LoadLog = phase["log"]
    latencies = [o.latency for o in log_.ops if o.ok]
    attempted, failed = benchlib.count_outcomes(o.ok for o in log_.ops)
    # A wrong output is an operation that answered "ok" with bad bytes.
    failed = min(attempted, failed + phase["wrong"])
    summary = benchlib.summarize(latencies)
    report, metrics = phase["report"], phase["metrics"]
    counters = metrics["counters"]
    quota = counters.get("serve.requests.rejected.quota", 0)
    if quota:
        log_.problems.append(f"{quota} quota rejections: the benchmark's quota is mis-sized")
    codes = sorted({o.code for o in log_.ops if not o.ok})
    if codes:
        log_.problems.append(f"failed operations with codes {codes}")
    health = phase["health"]
    env = {"crypto_backend": health.get("crypto_backend"), "sim_backend": health.get("sim_backend")}
    end_to_end = {
        "setup_s": statistics.median(phase["setup"]),
        "peak_rss_mb": report["rss_server_mb"] + report["rss_worker_mb"],
        **windowed(log_, phase["start"], phase["wall"]),
        "run_s": phase["wall"],
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": log_.problems,
        "env": env,
        "end_to_end": end_to_end,
        "tail": summary,
    }


def serve_layers(phase: dict, untraced_wall: float) -> dict:
    log_: LoadLog = phase["log"]
    probes = phase["report"]["probes"]
    samples, counts = probes["samples"], probes["counts"]
    metrics = phase["metrics"]
    counters, timers = metrics["counters"], metrics["timers"]

    def total(name: str) -> float:
        return sum(samples.get(name, ()))

    def mean(name: str) -> float:
        values = samples.get(name, ())
        return sum(values) / len(values) if values else 0.0

    def p50(values) -> float:
        return benchlib.quantile(values, 0.5) if values else 0.0

    ok = [o.latency for o in log_.ops if o.ok]
    requests = len(samples.get("serve.decode", ()))
    crypto_s = total("crypto.call")
    lines = counts.get("crypto.call.items", 0)
    layers = {
        f"serve.{op}.p50_ms": p50([o.latency for o in log_.ops if o.ok and o.op == op]) * 1e3
        for op in ("seal", "unseal", "verify")
    }
    layers.update(
        {
            "serve.server_p50_ms": timers.get("serve.request", {}).get("p50_seconds", 0.0) * 1e3,
            "serve.p99_ms": benchlib.quantile(ok, 0.99) * 1e3 if ok else 0.0,
            "serve.protocol_us": (total("serve.decode") + total("serve.encode")) / requests * 1e6
            if requests
            else 0.0,
            "serve.queue_wait_ms": mean("serve.queue_wait") * 1e3,
            "serve.dispatch_ms": mean("serve.dispatch") * 1e3,
            "serve.batch_requests_mean": mean("serve.batch_requests"),
            "serve.attempted": len(log_.ops),
            "serve.failed": sum(1 for o in log_.ops if not o.ok),
            "serve.rejected": sum(
                v for k, v in counters.items() if k.startswith("serve.requests.rejected.")
            ),
            "crypto.calls": len(samples.get("crypto.call", ())),
            "crypto.lines": lines,
            "crypto.call_p50_us": p50(samples.get("crypto.call", [])) * 1e6,
            "crypto.us_per_line": crypto_s / lines * 1e6 if lines else 0.0,
            "crypto.busy_share": crypto_s / phase["wall"],
            "obs.observations": len(samples.get("obs.observe", ())),
            "obs.frames": len(samples.get("obs.frame", ())),
            "obs.busy_ms": (total("obs.observe") + total("obs.record_request") + total("obs.frame"))
            * 1e3,
            "trace.overhead_share": phase["wall"] / untraced_wall - 1.0,
        }
    )
    return layers


def run_serve(seed: int, seconds: float, trace: bool, env: dict, run_dir: Path) -> dict:
    if trace:  # an untraced and a traced phase share the run's work
        seconds /= 2
    plain = asyncio.run(
        serve_phase(seed, seconds, env, run_dir, setups=(1, 0) if trace else SERVE_SETUPS, probes=False)
    )
    result = serve_results(plain)
    if trace:
        traced = asyncio.run(serve_phase(seed, seconds, env, run_dir, setups=(1, 0), probes=True))
        traced_result = serve_results(traced)
        for key in ("attempted", "failed"):
            result[key] += traced_result[key]
        result["problems"] += traced_result["problems"]
        result["layers"] = serve_layers(traced, plain["wall"])
    return result


# ----------------------------------------------------------------------
# Compute workloads (sim-fig7, sweep-vgg16)
# ----------------------------------------------------------------------
def launch_host(workload: str, env: dict) -> tuple[subprocess.Popen, dict, float]:
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "compute_host.py"), workload],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if not line:
        proc.wait()
        raise BenchError(f"{workload} host exited {proc.returncode} before it was ready")
    return proc, json.loads(line), elapsed


def host_job(workload: str, env: dict, job: dict, samples_per_gap: int) -> tuple[list[float], dict, dict]:
    """Run ``job`` on one host; returns the set-up samples, the host's
    ready line and its result.  The host's own launch is a set-up sample;
    with ``samples_per_gap``, so are that many extra launches before it,
    at each pause the host makes between its jobs, and after it."""
    setup_times = []

    def sample() -> None:
        for _ in range(samples_per_gap):
            proc, _, elapsed = launch_host(workload, env)
            setup_times.append(elapsed)
            try:
                proc.communicate("exit\n", timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    sample()
    proc, info, elapsed = launch_host(workload, env)
    setup_times.append(elapsed)
    result = None
    watchdog = threading.Timer(170.0, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(dict(job, pause=samples_per_gap > 0)) + "\n")
        proc.stdin.flush()
        for line in proc.stdout:
            reply = json.loads(line)
            if not reply.get("pause"):
                result = reply
                break
            sample()
            proc.stdin.write("go\n")
            proc.stdin.flush()
        proc.stdin.close()
        proc.wait(60)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode or result is None:
        raise BenchError(f"{workload} host exited {proc.returncode}")
    sample()
    return setup_times, info, result


def run_compute(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    setup_times, info, host = host_job(
        workload,
        env,
        {"seed": seed, "seconds": seconds, "trace": int(trace)},
        0 if trace else COMPUTE_SETUPS_PER_GAP,
    )
    problems = []
    if workload == "sim-fig7" and not info.get("native_kernel"):
        problems.append("the native sim kernel did not load")
    problems += host["problems"]
    # Medians over the run's jobs: a job that falls in a slow spell of the
    # host does not set the figure.  Each job runs the same operations in
    # the same order, so an operation's time is its median over the jobs.
    job_s, op_s = host["job_s"], host["op_s"]
    if len({len(ops) for ops in op_s}) != 1:
        problems.append(f"jobs ran different numbers of operations: {[len(o) for o in op_s]}")
    op_times = [statistics.median(times) for times in zip(*op_s)]
    result = {
        "attempted": host["attempted"],
        "failed": host["failed"],
        "problems": problems,
        "env": host["env"],
        "end_to_end": {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": host["peak_rss_mb"],
            "p50_ms": benchlib.quantile(op_times, 0.5) * 1e3,
            "p90_ms": benchlib.quantile(op_times, 0.9) * 1e3,
            "throughput_rps": statistics.median(len(ops) / t for ops, t in zip(op_s, job_s)),
            "run_s": statistics.median(job_s),
        },
        "tail": benchlib.summarize([t for ops in op_s for t in ops]),
    }
    if trace:
        layers = dict(host["layers"])
        layers["runner.retries"] = host["runner"].get("runner.retries", 0)
        layers["runner.failed"] = host["runner"].get("runner.failures", 0)
        layers["trace.overhead_share"] = host["traced_run_s"] / statistics.median(job_s) - 1.0
        if workload == "sim-fig7":
            split = ("core.plan.build_s", "sim.lower_s", "sim.compile_s", "sim.kernel_s")
        else:
            split = ("attacks.victim_fit_s", "attacks.substitute_fit_s", "attacks.augment_s", "attacks.transfer_s")
        coverage = sum(layers[name] for name in split) / host["traced_run_s"]
        layers["split.coverage"] = coverage
        low, high = SPLIT_COVERAGE
        if not low <= coverage <= high:
            problems.append(f"layer split covers {coverage:.3f} of run_s, outside [{low}, {high}]")
        result["layers"] = layers
    return result


# ----------------------------------------------------------------------
def emit(result: dict, trace: bool) -> dict:
    """The final JSON object: every metric of BENCHMARK.json for the mode."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    values = dict(result["end_to_end"]) if not trace else dict(result["layers"])
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {
        item["name"]: {"value": float(values.get(item["name"], 0.0)), "unit": item["unit"]}
        for item in wanted
    }
    return {
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="SEAL reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/repro/__init__.py").is_file():
        log("error: no src/repro here; run from the repository root")
        return 2
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    run_dir = build / "perfbench" / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    env = bench_env(build)
    try:
        prepare(env)
        if args.workload == "serve-bulk":
            result = run_serve(args.seed, args.seconds, bool(args.trace), env, run_dir)
        else:
            result = run_compute(args.workload, args.seed, args.seconds, bool(args.trace), env)
    except (BenchError, subprocess.TimeoutExpired, OSError) as error:
        log(f"error: {error}")
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in result["problems"]:
        log(f"check failed: {problem}")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "env": result["env"],
                "latency_samples": result["tail"],
                "failure_share": benchlib.failure_share(result["attempted"], result["failed"]),
            }
        )
    )
    print(json.dumps(emit(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
