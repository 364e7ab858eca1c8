"""Timing wrappers the benchmark installs around the program's layers.

The program carries no benchmark instrumentation of its own, so the traced
runs patch the public (and a few module-level) functions of each layer
with wrappers that time every call into a :class:`Recorder`.  Wrappers
keep the wrapped function's name and module, so a patched module-level
function still pickles by reference into a forked worker process, where
the patched module is inherited.

Layers are grouped.  In an ``outer`` group only the outermost call of the
group on a thread is timed (``open_lines`` calls ``verify_lines``; both are
one crypto call).  In a ``self`` group each call records its self time,
the nested calls of the group being subtracted, so the group's times add
up to the wall time they cover without double counting.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time

perf_counter = time.perf_counter


class Recorder:
    """Thread-safe named samples (seconds) and counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.samples: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(seconds)

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def total(self, name: str) -> float:
        with self._lock:
            return sum(self.samples.get(name, ()))

    def n(self, name: str) -> int:
        with self._lock:
            return len(self.samples.get(name, ()))

    def drain(self) -> dict:
        """Everything recorded so far, as a JSON-ready document; resets."""
        with self._lock:
            doc = {"samples": self.samples, "counts": self.counts}
            self.samples, self.counts = {}, {}
        return doc

    def fold(self, doc: dict) -> None:
        """Add a :meth:`drain` document (from another process) to this one."""
        with self._lock:
            for name, values in doc.get("samples", {}).items():
                self.samples.setdefault(name, []).extend(values)
            for name, value in doc.get("counts", {}).items():
                self.counts[name] = self.counts.get(name, 0) + value


#: The process's recorder.  A forked pool worker inherits a copy, which the
#: worker-side wrapper drains per batch and ships back with the result.
RECORDER = Recorder()

_stacks = threading.local()


def _stack(group: str) -> list:
    stacks = getattr(_stacks, "stacks", None)
    if stacks is None:
        stacks = _stacks.stacks = {}
    return stacks.setdefault(group, [])


def patch(owner, name: str, make) -> None:
    """Replace ``owner.name`` by ``make(original)``, keeping its identity
    (``__module__``/``__qualname__``) and its classmethod-ness."""
    raw = inspect.getattr_static(owner, name)
    if isinstance(raw, classmethod):
        wrapper = functools.update_wrapper(make(raw.__func__), raw.__func__)
        setattr(owner, name, classmethod(wrapper))
        return
    original = getattr(owner, name)
    setattr(owner, name, functools.update_wrapper(make(original), original))


def timed(name: str, *, group: str | None = None, mode: str = "outer", size=None):
    """Wrapper factory timing each call under ``name``.

    ``size(args, kwargs, result)``, when given, is added to the count
    ``name + ".items"`` for every recorded call.
    """

    def make(original):
        def wrapper(*args, **kwargs):
            stack = _stack(group) if group else None
            if stack and mode == "outer":
                return original(*args, **kwargs)
            frame = [0.0]
            if stack is not None:
                stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                if stack is not None:
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                RECORDER.add(name, elapsed - frame[0])
            if size is not None:
                RECORDER.count(name + ".items", size(args, kwargs, result))
            return result

        return wrapper

    return make


def counted(name: str):
    """Wrapper factory counting calls (no timing)."""

    def make(original):
        def wrapper(*args, **kwargs):
            RECORDER.count(name)
            return original(*args, **kwargs)

        return wrapper

    return make


# ----------------------------------------------------------------------
# Serving: protocol, batcher, dispatch, crypto, telemetry
# ----------------------------------------------------------------------
def install_serve() -> None:
    """Wrap the serve, crypto and obs layers of a server process.

    Must run before the server starts: the telemetry hub binds its tap at
    attach time and the worker pool is forked at the first batch.
    """
    from repro.core.seal import LineSealer
    from repro.obs.live import TelemetryHub
    from repro.serve import server
    from repro.serve.batcher import MicroBatcher

    patch(server, "decode_request", timed("serve.decode"))
    patch(server, "encode_response", timed("serve.encode"))

    stamps: dict[int, float] = {}

    def make_submit(original):
        async def submit(self, item):
            stamps[id(item)] = perf_counter()
            return await original(self, item)

        return submit

    def make_run_batch(original):
        async def run_batch(self, batch):
            now = perf_counter()
            for item, _ in batch:
                RECORDER.add("serve.queue_wait", now - stamps.pop(id(item), now))
            RECORDER.add("serve.batch_requests", float(len(batch)))
            return await original(self, batch)

        return run_batch

    patch(MicroBatcher, "submit", make_submit)
    patch(MicroBatcher, "_run_batch", make_run_batch)

    def make_run_batch_spec(original):
        def run_batch_spec(spec):
            start = perf_counter()
            out = original(spec)
            out["_perfbench_inner"] = perf_counter() - start
            return out

        return run_batch_spec

    def make_pool_run_batch(original):
        def pool_run_batch(spec):
            RECORDER.drain()  # drop what the fork inherited
            result, snapshot, spans = original(spec)
            result["_perfbench_records"] = RECORDER.drain()
            return result, snapshot, spans

        return pool_run_batch

    def make_dispatch(original):
        async def dispatch_spec(self, spec):
            start = perf_counter()
            result = await original(self, spec)
            total = perf_counter() - start
            records = result.pop("_perfbench_records", None)
            if records:
                RECORDER.fold(records)
            inner = result.pop("_perfbench_inner", total)
            RECORDER.add("serve.dispatch", total - inner)
            return result

        return dispatch_spec

    patch(server, "_run_batch_spec", make_run_batch_spec)
    patch(server, "_pool_run_batch", make_pool_run_batch)
    patch(server.ModelServer, "_dispatch_spec", make_dispatch)

    def lines(args, kwargs, result):
        return len(args[1])

    for method in ("seal_lines", "verify_lines", "open_lines"):
        patch(LineSealer, method, timed("crypto.call", group="crypto", size=lines))

    patch(TelemetryHub, "_on_observe", timed("obs.observe", group="obs"))
    patch(TelemetryHub, "record_request", timed("obs.record_request", group="obs"))
    patch(TelemetryHub, "frame", timed("obs.frame", group="obs"))
    patch(TelemetryHub, "write_frame", timed("obs.frame", group="obs"))


# ----------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------
def install_sim_always() -> None:
    """Per-unit timing (for unit latency) and a fallback detector; cheap
    enough to stay on in untraced runs."""
    from repro.sim import engine, parallel

    patch(parallel, "simulate_unit", timed("sim.unit"))
    patch(engine, "_run_python", counted("sim.python_loop"))


def install_sim() -> None:
    """Wrap plan building, lowering, stream compilation and the kernel."""
    from repro.core.plan import ModelEncryptionPlan
    from repro.sim import engine, parallel, runner

    patch(ModelEncryptionPlan, "build", timed("core.plan", group="plan"))
    patch(ModelEncryptionPlan, "layer_traffic", timed("core.plan", group="plan"))
    patch(parallel, "layer_streams", timed("sim.lower"))
    patch(
        engine,
        "compile_streams",
        timed(
            "sim.compile",
            size=lambda args, kwargs, result: int(result.num_requests),
        ),
    )
    patch(engine, "_run_native", timed("sim.kernel"))
    patch(
        runner,
        "run_units",
        timed("sim.run_units", size=lambda args, kwargs, result: len(args[0])),
    )


# ----------------------------------------------------------------------
# Security sweep
# ----------------------------------------------------------------------
def install_sweep_always() -> None:
    """Per-cell timing (for cell latency)."""
    from repro.attacks import sweep

    patch(sweep, "run_cell", timed("sweep.cell"))


def install_sweep() -> None:
    """Wrap the attack stages (self times) and the nn ops (inclusive)."""
    from repro.attacks import security, substitute, sweep
    from repro.nn import functional
    from repro.nn.tensor import Tensor

    patch(sweep, "_train_victim", timed("attacks.victim_fit", group="attacks", mode="self"))
    patch(
        substitute,
        "jacobian_augment",
        timed("attacks.augment", group="attacks", mode="self"),
    )
    patch(
        substitute,
        "train_substitute",
        timed("attacks.substitute_fit", group="attacks", mode="self"),
    )
    patch(
        sweep,
        "measure_transferability",
        timed("attacks.transfer", group="attacks", mode="self"),
    )

    patch(functional, "conv2d", timed("nn.conv2d"))
    patch(functional, "col2im", timed("nn.col2im"))
    patch(functional, "batch_norm2d", timed("nn.batch_norm"))
    for pool in ("max_pool2d", "avg_pool2d", "global_avg_pool2d"):
        patch(functional, pool, timed("nn.pool"))
    patch(Tensor, "backward", timed("nn.backward", group="backward"))

    def samples(args, kwargs, result):
        return len(args[1].images) * kwargs["epochs"]

    for module in (security, substitute):
        patch(module, "fit", timed("nn.fit", size=samples))
