"""Convolution cost: channel-major im2col against the frozen row-major one.

The security sweep (Figures 3/4) spends most of its time in the nn
stack's convolutions.  This benchmark times them on the sweep's own model,
VGG-16 at width 0.0625 on 32x32 inputs:

* per conv shape, forward + backward at the training batch (32) and
  forward alone at the inference batch (128), for
  :func:`repro.nn.functional.conv2d` and for the row-major reference it
  replaced (``tests/nn/reference_conv.py``);
* one whole-model training step (forward, cross-entropy, backward) with
  each convolution, alternated step for step; the recorded claim is the
  median step-time ratio, floor **1.3x**.

Both convolutions must agree on every output (``max|Δ| ≤ 1e-12·max|ref|``
is the differential suite's bound; here the loss is compared).
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.eval.reporting import ascii_table
from repro.nn import functional as F
from repro.nn.layers import set_init_rng
from repro.nn.models import build_model
from repro.nn.tensor import Tensor, no_grad

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # repo root
from tests.nn import reference_conv  # noqa: E402

WIDTH = 0.0625
TRAIN_BATCH = 32
INFER_BATCH = 128
CONVS = {"channel-major": F.conv2d, "reference": reference_conv.conv2d}


def _conv_shapes(model):
    """Distinct (C_in, C_out, H, k, stride, padding) of the model's convs,
    in forward order, recorded from one forward pass."""
    shapes = []
    real = F.conv2d

    def record(x, weight, bias=None, stride=1, padding=0):
        c_out, c_in, kernel, _ = weight.shape
        shape = (c_in, c_out, x.shape[2], kernel, stride, padding)
        if shape not in shapes:
            shapes.append(shape)
        return real(x, weight, bias, stride, padding)

    F.conv2d = record
    try:
        with no_grad():
            model.eval()
            model(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))
    finally:
        F.conv2d = real
    return shapes


def _median_ms(fn, repeats):
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _shape_costs(shape, repeats):
    c_in, c_out, size, kernel, stride, padding = shape
    rng = np.random.default_rng(0)
    weight = Tensor(rng.normal(size=(c_out, c_in, kernel, kernel)), requires_grad=True)
    train_x = Tensor(rng.normal(size=(TRAIN_BATCH, c_in, size, size)), requires_grad=True)
    infer_x = Tensor(rng.normal(size=(INFER_BATCH, c_in, size, size)))
    costs = {}
    for name, conv in CONVS.items():

        def train_step(conv=conv):
            out = conv(train_x, weight, None, stride, padding)
            out.backward(np.ones_like(out.data))

        def infer(conv=conv):
            with no_grad():
                conv(infer_x, weight, None, stride, padding)

        costs[name] = {
            "train_fwd_bwd_ms": _median_ms(train_step, repeats),
            "infer_fwd_ms": _median_ms(infer, repeats),
        }
    return costs


def _train_step_ms(steps):
    """Median whole-model training-step time per convolution, alternating
    the two step for step; and each side's losses."""
    set_init_rng(0)
    model = build_model("vgg16", width_scale=WIDTH)
    model.train()
    rng = np.random.default_rng(1)
    images = rng.normal(size=(TRAIN_BATCH, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 10, size=TRAIN_BATCH)
    times = {name: [] for name in CONVS}
    losses = {name: [] for name in CONVS}
    real = F.conv2d
    try:
        for step in range(steps + 1):  # step 0 warms up
            for name, conv in CONVS.items():
                model.zero_grad()  # no optimizer step: every step sees the same weights
                F.conv2d = conv
                start = time.perf_counter()
                loss = F.cross_entropy(model(Tensor(images)), labels)
                loss.backward()
                elapsed = time.perf_counter() - start
                if step:
                    times[name].append(elapsed)
                    losses[name].append(loss.item())
    finally:
        F.conv2d = real
    return {name: statistics.median(t) * 1e3 for name, t in times.items()}, losses


def test_nn_conv(benchmark, record_report, record_metrics, bench_scale):
    full = bench_scale == "full"
    repeats = 15 if full else 5
    steps = 21 if full else 9
    set_init_rng(0)
    shapes = _conv_shapes(build_model("vgg16", width_scale=WIDTH))

    def measure():
        per_shape = [(shape, _shape_costs(shape, repeats)) for shape in shapes]
        return per_shape, _train_step_ms(steps)

    per_shape, (step_ms, losses) = benchmark.pedantic(measure, iterations=1, rounds=1)
    speedup = step_ms["reference"] / step_ms["channel-major"]

    rows = []
    shape_payload = []
    for shape, costs in per_shape:
        c_in, c_out, size, kernel, stride, padding = shape
        new, ref = costs["channel-major"], costs["reference"]
        rows.append(
            (
                f"{c_in}->{c_out} @{size}x{size} k{kernel} s{stride} p{padding}",
                f"{new['train_fwd_bwd_ms']:.2f}",
                f"{ref['train_fwd_bwd_ms']:.2f}",
                f"{new['infer_fwd_ms']:.2f}",
                f"{ref['infer_fwd_ms']:.2f}",
            )
        )
        shape_payload.append(
            {
                "c_in": c_in,
                "c_out": c_out,
                "size": size,
                "kernel": kernel,
                "stride": stride,
                "padding": padding,
                **costs,
            }
        )
    report = (
        f"conv2d cost on VGG-16(x{WIDTH:g}), 32x32 inputs "
        f"(median of {repeats}; train batch {TRAIN_BATCH}, inference batch {INFER_BATCH})\n"
        + ascii_table(
            (
                "conv shape",
                "fwd+bwd ms",
                "ref fwd+bwd ms",
                "infer ms",
                "ref infer ms",
            ),
            rows,
        )
        + f"\n\nwhole-model train step (median of {steps}, alternated): "
        f"{step_ms['channel-major']:.1f} ms vs reference {step_ms['reference']:.1f} ms"
        f"\ntrain-step speedup: {speedup:.2f}x (floor: 1.3x)"
    )
    record_report("nn_conv", report)
    record_metrics(
        "nn_conv",
        payload={
            "model": "vgg16",
            "width_scale": WIDTH,
            "train_batch": TRAIN_BATCH,
            "infer_batch": INFER_BATCH,
            "shapes": shape_payload,
            "train_step_ms": step_ms,
            "train_step_speedup": speedup,
        },
    )

    # Same parameters, same batch: the two convolutions give the same loss.
    np.testing.assert_allclose(
        losses["channel-major"], losses["reference"], rtol=1e-10
    )
    assert speedup >= 1.3, f"channel-major train step only {speedup:.2f}x"
