"""Top-level GPU simulator: SMs + address-interleaved memory controllers.

A discrete-event simulation over continuous time: SM events are processed
in global time order from a heap, so memory controllers see request streams
interleaved the way concurrently executing SMs would interleave them.  The
result is an IPC figure comparable across encryption schemes — exactly the
measurement the paper's Figures 1 and 5–8 report (always normalized to the
unencrypted baseline).
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer, instrument
from .config import EncryptionMode, GpuConfig
from . import _native, engine
from .engine import resolve_sim_backend
from .memctrl import MemoryController
from .request import MemRequest
from .sm import LoweredStreams, SmState, SmStats, TileStep

__all__ = ["SimResult", "GpuSimulator"]


@dataclass(frozen=True)
class SimResult:
    """Outcome of one kernel (or layer-sequence) simulation."""

    label: str
    cycles: float
    instructions: int
    num_sms: int
    data_bytes: int
    counter_fetch_bytes: int
    encrypted_bytes: int
    bypass_bytes: int
    dram_utilization: float
    engine_utilization: float
    counter_hit_rate: float
    sm_stats: tuple[SmStats, ...] = field(repr=False, default=())

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def achieved_bandwidth_fraction(self) -> float:
        return self.dram_utilization

    def normalized_ipc(self, baseline: "SimResult") -> float:
        """IPC relative to an unencrypted baseline run of the same work."""
        if baseline.ipc == 0:
            return 0.0
        return self.ipc / baseline.ipc

    def latency_ratio(self, baseline: "SimResult") -> float:
        """Execution-time ratio versus the baseline (same work assumed)."""
        if baseline.cycles == 0:
            return 0.0
        return self.cycles / baseline.cycles


class GpuSimulator:
    """Simulate one GPU configuration executing per-SM step streams.

    Two interchangeable engines drive the same simulation: the ``scalar``
    backend walks request objects through the controller models one at a
    time (the readable reference), while the ``vector`` backend
    (:mod:`repro.sim.engine`) compiles the streams into flat arrays and
    replays the identical event schedule with primitive operations only —
    bit-identical results, an order of magnitude faster.  ``backend=None``
    defers to ``REPRO_SIM_BACKEND`` and then the vector default.
    """

    def __init__(self, config: GpuConfig, backend: str | None = None) -> None:
        self.config = config
        self.backend = resolve_sim_backend(backend)
        self.controllers = [
            MemoryController(channel, config) for channel in range(config.num_channels)
        ]

    # ------------------------------------------------------------------
    def _route(self, request: MemRequest) -> MemoryController:
        """Line-interleaved address mapping across channels."""
        channel = (request.address // self.config.line_bytes) % self.config.num_channels
        return self.controllers[channel]

    def _issue(self, requests: tuple[MemRequest, ...], when: float) -> float:
        """Submit requests; return the time the last response arrives.

        At most ``max_outstanding_per_sm`` requests are in flight per SM
        (the MSHR limit); excess requests wait for the previous wave.
        """
        cap = max(1, self.config.max_outstanding_per_sm)
        done = when
        for start in range(0, len(requests), cap):
            wave_start = done if start else when
            wave_done = wave_start
            for request in requests[start : start + cap]:
                wave_done = max(
                    wave_done, self._route(request).submit(request, wave_start)
                )
            done = wave_done
        return done

    # ------------------------------------------------------------------
    def run(
        self, streams: LoweredStreams | Sequence[Sequence[TileStep]], label: str = ""
    ) -> SimResult:
        """Execute one stream of tile steps per SM to completion.

        ``streams`` shorter than ``num_sms`` leave the remaining SMs idle
        (small kernels do not fill the machine, exactly as on hardware).

        Two stages, each with its own span and metrics timer:
        ``sim.compile`` turns the streams into the engine's input
        (:func:`repro.sim.engine.compile_streams` for the native kernel,
        the materialised :class:`TileStep` lists for the scalar engine),
        and ``sim.kernel`` times the event simulation alone.

        A vector-requested run uses the scalar engine when the native
        kernel cannot run: :func:`repro.sim._native.load` returned
        ``None``, or the kernel rejected the counter-cache state.  The
        ``sim.backend.<name>`` counter and the span's ``sim_backend``
        attribute name the engine that ran.
        """
        metrics = get_metrics()
        metrics.count("sim.kernel_runs")
        native = self.backend == "vector" and _native.load() is not None
        with instrument("sim.compile"):
            if native:
                # Looked up on the module so wrappers installed there apply.
                program = engine.compile_streams(self.config, streams)
            else:
                program = [list(stream) for stream in streams]
        wall_start = time.time()
        with instrument("sim.kernel") as span:
            outcome = (
                engine.run_vector(self.config, self.controllers, program)
                if native
                else None
            )
            if outcome is not None:
                result = self._collect(label, *outcome)
            elif self.backend == "vector":
                result = engine._run_python(self, streams, label)
            else:
                result = self._run_scalar(program, label)
        ran = "scalar" if outcome is None else "vector"
        metrics.count(f"sim.backend.{ran}")
        if span:
            self._annotate_span(span, result, wall_start, ran)
        metrics.count("sim.data_bytes", result.data_bytes)
        return result

    def _annotate_span(
        self, span, result: SimResult, wall_start: float, backend: str
    ) -> None:
        """Attach the kernel's attrs, AES-engine occupancy and counter-cache
        events, and per-SM occupancy child spans (tracing-enabled only).

        SM rows live in the cycle domain; for the wall-clock trace each SM
        gets a child span scaled to its busy-cycle share of the kernel, so
        Perfetto shows relative occupancy without pretending the simulator
        replayed real time.
        """
        tracer = get_tracer()
        span.set_attr("label", result.label)
        span.set_attr("cycles", result.cycles)
        span.set_attr("instructions", result.instructions)
        span.set_attr("encryption", self.config.encryption.mode.name)
        span.set_attr("sim_backend", backend)
        span.set_attr("dram_utilization", round(result.dram_utilization, 6))
        for controller in self.controllers:
            for name, attrs in controller.trace_events(result.cycles):
                span.event(name, attrs)
        wall = time.time() - wall_start
        for sm_id, stats in enumerate(result.sm_stats):
            share = stats.busy_cycles / result.cycles if result.cycles else 0.0
            tracer.add_span(
                "sim.sm",
                wall_start,
                wall * share,
                attrs={
                    "sm": sm_id,
                    "lane": True,
                    "busy_cycles": round(stats.busy_cycles, 3),
                    "instructions": stats.instructions,
                },
                tid=f"sm{sm_id}",
                parent=span,
            )

    def _run_scalar(
        self, streams: Sequence[Sequence[TileStep]], label: str = ""
    ) -> SimResult:
        if len(streams) > self.config.num_sms:
            raise ValueError(
                f"{len(streams)} streams for {self.config.num_sms} SMs"
            )
        sms = [SmState(sm_id=i, steps=list(stream)) for i, stream in enumerate(streams)]

        event_heap: list[tuple[float, int]] = []
        for sm in sms:
            if sm.done:
                continue
            # Prefetch the first step's operands at t=0.
            sm.ready_time = self._issue(sm.steps[0].reads, 0.0)
            sm.stats.read_requests += len(sm.steps[0].reads)
            heapq.heappush(event_heap, (sm.next_event_time, sm.sm_id))

        finish_time = 0.0
        while event_heap:
            event_time, sm_id = heapq.heappop(event_heap)
            sm = sms[sm_id]
            if sm.done:
                continue
            step = sm.steps[sm.next_step]
            start = max(event_time, sm.next_event_time)
            end = start + step.compute_cycles
            sm.stats.instructions += step.instructions
            sm.stats.busy_cycles += step.compute_cycles
            sm.stats.steps += 1
            # Results are written back when compute finishes.
            if step.writes:
                sm.last_write_done = max(
                    sm.last_write_done, self._issue(step.writes, end)
                )
                sm.stats.write_requests += len(step.writes)
            sm.compute_end = end
            sm.next_step += 1
            if not sm.done:
                # Double buffering: prefetch the next step during compute.
                next_step = sm.steps[sm.next_step]
                sm.ready_time = self._issue(next_step.reads, start)
                sm.stats.read_requests += len(next_step.reads)
                heapq.heappush(event_heap, (sm.next_event_time, sm.sm_id))
            else:
                finish_time = max(finish_time, end, sm.last_write_done)

        for sm in sms:
            finish_time = max(finish_time, sm.compute_end, sm.last_write_done)

        return self._collect(label, finish_time, sms)

    # ------------------------------------------------------------------
    def _collect(self, label: str, cycles: float, sms: list[SmState]) -> SimResult:
        data_bytes = sum(mc.stats.data_bytes for mc in self.controllers)
        counter_bytes = sum(mc.stats.counter_fetch_bytes for mc in self.controllers)
        encrypted = sum(mc.stats.encrypted_bytes for mc in self.controllers)
        bypass = sum(mc.stats.bypass_bytes for mc in self.controllers)
        dram_util = (
            sum(mc.utilization(cycles) for mc in self.controllers)
            / len(self.controllers)
            if cycles
            else 0.0
        )
        engine_util = 0.0
        if self.config.encryption.enabled and cycles:
            engine_util = sum(
                mc.engine.utilization(int(cycles))
                for mc in self.controllers
                if mc.engine is not None
            ) / len(self.controllers)
        hit_rate = float("nan")
        if self.config.encryption.mode is EncryptionMode.COUNTER:
            hits = sum(
                mc.counter_cache.stats.hits
                for mc in self.controllers
                if mc.counter_cache
            )
            accesses = sum(
                mc.counter_cache.stats.accesses
                for mc in self.controllers
                if mc.counter_cache
            )
            hit_rate = hits / accesses if accesses else 0.0
        return SimResult(
            label=label or self.config.encryption.label(),
            cycles=cycles,
            instructions=sum(sm.stats.instructions for sm in sms),
            num_sms=len(sms),
            data_bytes=data_bytes,
            counter_fetch_bytes=counter_bytes,
            encrypted_bytes=encrypted,
            bypass_bytes=bypass,
            dram_utilization=dram_util,
            engine_utilization=engine_util,
            counter_hit_rate=hit_rate,
            sm_stats=tuple(sm.stats for sm in sms),
        )
