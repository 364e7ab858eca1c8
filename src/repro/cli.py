"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``plan``            build and print a smart-encryption plan (optionally save JSON)
``simulate``        run a model under the five schemes (alias: ``run``)
``snoop``           summarize what a bus adversary learns at a given ratio
``table1``          print the AES engine survey
``figure``          regenerate one of the paper's performance figures (1/5/6/7/8)
``security-sweep``  checkpointed Figure-3/4 substitute sweep (docs/threat-model.md)
``faults``          bus-tampering fault-injection campaign (docs/fault-model.md)
``trace``           run any other command with tracing enabled (docs/tracing.md)
``report``          render a text run report from a metrics/trace pair
``serve``           seal-as-a-service front end over TCP (docs/serving.md)

``simulate``, ``figure`` and ``security-sweep`` accept ``--jobs N`` to fan
independent work over a process pool and ``--metrics-out PATH`` to write
the run's counters/timers/cache statistics as JSON (schema
``repro.metrics/v1``; see docs/metrics.md).  Every command also accepts
``--trace-out PATH`` plus ``--format json|chrome`` to record a
hierarchical span trace of the run (schema ``repro.trace/v1``; the chrome
format loads directly in Perfetto — see docs/tracing.md), and
``repro report --metrics m.json --trace t.json`` turns such a pair into a
human-readable profile.  ``security-sweep``
additionally checkpoints every finished cell under ``--checkpoint-dir``
and, with ``--resume``, skips cells a previous (possibly killed) run
already completed; ``--max-attempts``/``--unit-timeout`` arm the hardened
runner's bounded retry and per-cell timeout (docs/fault-model.md).
``faults`` exits nonzero if any fault on an authenticated encrypted line
goes undetected, any untampered line fails verification, or the
plaintext-line integrity gap fails to show.  Its functional crypto runs on
the vector (NumPy) backend by default; ``--crypto-backend scalar`` (or the
``REPRO_CRYPTO_BACKEND`` environment variable) pins the pure-Python oracle
instead — results are identical by contract (docs/fault-model.md).
``simulate`` and ``figure`` similarly accept ``--sim-backend
scalar|vector`` (or ``REPRO_SIM_BACKEND``) to pin the simulator engine;
the vector default compiles step streams to flat arrays and is an order
of magnitude faster, with bit-identical results (docs/architecture.md);
``REPRO_SIM_NATIVE=0`` additionally forces the vector engine's
pure-Python inner loop when the compiled helper is suspect.  ``serve``
runs the asyncio model-protection server (micro-batching, per-tenant
quotas, bounded queues, crash-isolated workers — docs/serving.md);
on shutdown it can emit the same ``--metrics-out``/``--trace-out``
documents as every batch command.  Setting ``REPRO_TRACE=1`` in the
environment is equivalent to passing ``--trace-out`` for worker
processes: it is how tracing propagates into process pools.
"""

from __future__ import annotations

import argparse
import sys

from .core.analysis import summarize_traffic
from .core.plan import ModelEncryptionPlan
from .core.seal import SealScheme
from .core.serialize import save_plan
from .eval.reporting import ascii_table
from .nn.models import MODEL_BUILDERS, build_model
from .obs.metrics import get_metrics, reset_metrics
from .obs.trace import disable_tracing, enable_tracing, write_trace_document
from .sim.runner import SCHEMES, compare_schemes, known_schemes

__all__ = ["main"]


def _build(args: argparse.Namespace) -> tuple[object, ModelEncryptionPlan]:
    kwargs = {}
    if args.width_scale != 1.0:
        kwargs["width_scale"] = args.width_scale
    model = build_model(args.model, **kwargs)
    plan = ModelEncryptionPlan.build(model, args.ratio)
    return model, plan


def _cmd_plan(args: argparse.Namespace) -> int:
    _, plan = _build(args)
    print(plan.summary())
    print()
    print(summarize_traffic(plan))
    if args.output:
        save_plan(plan, args.output)
        print(f"plan saved to {args.output}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    schemes = tuple(args.schemes.split(",")) if args.schemes else SCHEMES
    unknown = [scheme for scheme in schemes if scheme not in known_schemes()]
    if unknown:
        print(
            f"unknown scheme(s) {', '.join(unknown)}; "
            f"choose from {','.join(known_schemes())}",
            file=sys.stderr,
        )
        return 2
    _, plan = _build(args)
    results = compare_schemes(plan, schemes, jobs=args.jobs)
    baseline = results[schemes[0]]
    rows = []
    for scheme in schemes:
        result = results[scheme]
        rows.append(
            (
                scheme,
                f"{result.ipc:.2f}",
                f"{result.ipc / baseline.ipc:.3f}",
                f"{result.cycles / baseline.cycles:.3f}",
                f"{result.latency_seconds() * 1e3:.2f}",
            )
        )
    print(f"{plan.model_name} @ ratio {plan.ratio:.0%} on GTX480")
    print(
        ascii_table(
            ("scheme", "IPC", "norm IPC", "norm latency", "latency (ms)"), rows
        )
    )
    return 0


def _cmd_snoop(args: argparse.Namespace) -> int:
    model, _ = _build(args)
    scheme = SealScheme(model, args.ratio)
    view = scheme.snooped_view()
    print(
        f"{view.model_name} @ ratio {args.ratio:.0%}: adversary sees "
        f"{view.known_fraction():.1%} of kernel weights in plaintext"
    )
    rows = []
    for layer in scheme.plan.layers:
        rows.append(
            (
                layer.name,
                layer.kind,
                layer.n_rows,
                int(layer.row_mask.sum()),
                "boundary" if layer.fully_encrypted else "",
            )
        )
    print(ascii_table(("layer", "kind", "rows", "encrypted rows", ""), rows))
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    from .eval.experiments import table1_engines

    print(table1_engines().report())
    return 0


#: ``repro figure N`` -> (experiments function, report keywords); figures
#: 3-4 run via ``repro security-sweep``.
_FIGURES = {
    "1": ("fig1_straightforward", {}),
    "5": ("fig5_conv_layers", {}),
    "6": ("fig6_pool_layers", {}),
    "7": ("fig7_overall_ipc", {}),
    "8": ("fig8_latency", {"metric": "latency"}),
}


def _cmd_figure(args: argparse.Namespace) -> int:
    from .eval import experiments

    name, report_kwargs = _FIGURES[args.number]
    print(getattr(experiments, name)(jobs=args.jobs).report(**report_kwargs))
    return 0


def _cmd_security_sweep(args: argparse.Namespace) -> int:
    from .attacks.security import SecurityExperimentConfig
    from .attacks.substitute import SubstituteConfig
    from .attacks.sweep import VARIANTS, plan_units, run_sweep

    # The resume summary and --metrics-out must describe THIS invocation;
    # within one process (tests, notebooks) the global registry otherwise
    # accumulates across runs.
    reset_metrics()

    models = [name.strip() for name in args.models.split(",") if name.strip()]
    unknown = [name for name in models if name not in MODEL_BUILDERS]
    if unknown:
        print(
            f"unknown model(s) {', '.join(unknown)}; "
            f"choose from {','.join(sorted(MODEL_BUILDERS))}",
            file=sys.stderr,
        )
        return 2
    try:
        ratios = tuple(float(token) for token in args.ratios.split(","))
    except ValueError:
        print(f"--ratios must be comma-separated floats: {args.ratios!r}", file=sys.stderr)
        return 2
    # Non-selective schemes encrypt every line regardless of the requested
    # ratio: the sweep grid collapses to the single effective exposure.
    from .schemes import get_scheme

    scheme = get_scheme(args.scheme)
    effective = tuple(dict.fromkeys(scheme.effective_ratio(r) for r in ratios))
    if effective != ratios:
        print(
            f"scheme {scheme.name} is not selective: ratios "
            f"{args.ratios} collapse to "
            f"{','.join(f'{r:g}' for r in effective)}"
        )
        ratios = effective
    variants = tuple(token.strip() for token in args.variants.split(",") if token.strip())
    bad = [variant for variant in variants if variant not in VARIANTS]
    if bad:
        print(
            f"unknown variant(s) {', '.join(bad)}; choose from {','.join(VARIANTS)}",
            file=sys.stderr,
        )
        return 2

    policy = None
    if args.max_attempts != 1 or args.unit_timeout is not None:
        from .faults import RetryPolicy

        policy = RetryPolicy(
            max_attempts=args.max_attempts, timeout_seconds=args.unit_timeout
        )

    units = []
    for model in models:
        config = SecurityExperimentConfig(
            model=model,
            width_scale=args.width_scale,
            ratios=ratios,
            train_size=args.train_size,
            test_size=args.test_size,
            victim_epochs=args.victim_epochs,
            substitute=SubstituteConfig(
                augmentation_rounds=args.augmentation_rounds,
                epochs=args.substitute_epochs,
                max_samples=args.max_samples,
                freeze_known=False,
            ),
            transfer_examples=args.transfer_examples,
            dataset_seed=args.dataset_seed,
            seed=args.seed,
        )
        units += plan_units(
            config, variants=variants, measure_transfer=not args.no_transfer
        )
    result = run_sweep(
        units,
        jobs=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        policy=policy,
    )
    print(result.report())
    if args.checkpoint_dir:
        counters = get_metrics().counters
        print(
            f"cells: {counters.get('sweep.cells.total', 0)} total, "
            f"{counters.get('sweep.cells.resumed', 0)} resumed, "
            f"{counters.get('sweep.cells.computed', 0)} computed "
            f"(checkpoints in {args.checkpoint_dir})"
        )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults.campaign import FaultCampaignConfig, run_fault_campaign

    reset_metrics()
    config = FaultCampaignConfig(
        model=args.model,
        ratio=args.ratio,
        width_scale=args.width_scale,
        seed=args.seed,
        faults_per_class=args.faults_per_class,
        max_lines_per_region=args.max_lines,
        scheme=args.scheme,
        authenticate=not args.no_auth,
        backend=args.crypto_backend,
    )
    result = run_fault_campaign(config)
    print(result.report())
    problems = result.problems()
    if problems:
        print(
            "fault campaign FAILED: " + "; ".join(problems), file=sys.stderr
        )
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print("usage: repro trace [--out PATH] [--format F] <command> ...", file=sys.stderr)
        return 2
    if rest[0] == "trace":
        print("trace cannot wrap itself", file=sys.stderr)
        return 2
    return main(rest + ["--trace-out", args.out, "--format", args.trace_format])


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.server import ServeConfig, run_server

    # One server = one run: --metrics-out/--trace-out describe this
    # serving session, not whatever ran earlier in the process.
    reset_metrics()
    config = ServeConfig(
        host=args.host,
        port=args.port,
        scheme=args.scheme,
        backend=args.crypto_backend,
        max_batch=args.max_batch,
        batch_window=args.batch_window,
        queue_limit=args.queue_limit,
        workers=args.workers,
        request_timeout=args.request_timeout,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        shutdown_token=args.shutdown_token,
        allow_remote_shutdown=args.allow_remote_shutdown,
        drain_timeout=args.drain_timeout,
        degraded_threshold=args.degraded_threshold,
        degraded_recovery=args.degraded_recovery,
        telemetry_out=args.telemetry_out,
        telemetry_interval=args.telemetry_interval,
        events_out=args.events_out,
        slo_window=args.slo_window,
        slo_availability=args.slo_availability,
        slo_p99=args.slo_p99,
    )
    return run_server(config)


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs.dashboard import frames_from_file, frames_from_server, run_top

    count = 1 if args.once else args.count
    if args.file:
        frames = frames_from_file(args.file, interval=args.interval, count=count)
        source = f"file {args.file}"
    else:
        frames = frames_from_server(
            args.host, args.port, interval=args.interval, count=count
        )
        source = f"{args.host}:{args.port}"
    color = sys.stdout.isatty() and not args.no_color and not args.once
    try:
        return run_top(
            frames,
            once=args.once,
            color=color,
            events=args.events,
            source=source,
        )
    except KeyboardInterrupt:
        print()
        return 0
    except (OSError, ValueError, RuntimeError) as error:
        print(f"top: {error}", file=sys.stderr)
        return 2


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs.metrics import METRICS_SCHEMA
    from .obs.report import load_document, render_report
    from .obs.trace import TRACE_SCHEMA

    if not args.metrics and not args.trace:
        print("report needs --metrics and/or --trace", file=sys.stderr)
        return 2
    try:
        metrics = load_document(args.metrics, METRICS_SCHEMA) if args.metrics else None
        trace = load_document(args.trace, TRACE_SCHEMA) if args.trace else None
    except (OSError, ValueError) as error:
        print(f"report: {error}", file=sys.stderr)
        return 2
    print(render_report(metrics, trace, top=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SEAL (DAC'21) reproduction: smart encryption for DL accelerators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--model", default="vgg16", choices=sorted(MODEL_BUILDERS),
            help="model architecture",
        )
        p.add_argument("--ratio", type=float, default=0.5, help="encryption ratio")
        p.add_argument(
            "--width-scale", type=float, default=1.0,
            help="channel-width scale factor (training-scale models use <1)",
        )

    def add_trace_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace-out", metavar="PATH",
            help="record a hierarchical span trace of the run as "
            "repro.trace/v1 JSON; sets REPRO_TRACE=1 so pool workers "
            "trace too (docs/tracing.md)",
        )
        p.add_argument(
            "--format", dest="trace_format", choices=["json", "chrome"],
            default="json",
            help="trace export format: repro.trace/v1 JSON or Chrome "
            "trace events (Perfetto-loadable)",
        )

    p_plan = sub.add_parser("plan", help="build and print a SEAL plan")
    add_model_args(p_plan)
    p_plan.add_argument("--output", help="write the plan as JSON")
    add_trace_args(p_plan)
    p_plan.set_defaults(func=_cmd_plan)

    def jobs_count(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be a positive integer or 0")
        return value

    def add_runner_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=jobs_count, default=1, metavar="N",
            help="worker processes for layer simulations (0 = CPU count)",
        )
        p.add_argument(
            "--metrics-out", metavar="PATH",
            help="write run metrics (counters/timers/cache stats) as "
            "repro.metrics/v1 JSON (docs/metrics.md)",
        )
        p.add_argument(
            "--sim-backend", choices=["scalar", "vector"], default=None,
            help="simulator engine (default: REPRO_SIM_BACKEND or vector); "
            "results are bit-identical by contract; REPRO_SIM_NATIVE=0 "
            "forces the vector engine's pure-Python inner loop",
        )

    p_sim = sub.add_parser(
        "simulate", aliases=["run"],
        help="simulate schemes on the GTX480 model (alias: run)",
    )
    add_model_args(p_sim)
    add_runner_args(p_sim)
    add_trace_args(p_sim)
    p_sim.add_argument(
        "--schemes",
        help="comma-separated schemes: the paper's "
        f"{','.join(SCHEMES)} and/or registered protection schemes "
        "(docs/schemes.md)",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_snoop = sub.add_parser("snoop", help="what a bus adversary learns")
    add_model_args(p_snoop)
    add_trace_args(p_snoop)
    p_snoop.set_defaults(func=_cmd_snoop)

    p_table = sub.add_parser("table1", help="AES engine survey (Table I)")
    add_trace_args(p_table)
    p_table.set_defaults(func=_cmd_table1)

    fig_help = "regenerate a performance figure (figures 3-4: `repro security-sweep`)"
    p_fig = sub.add_parser("figure", help=fig_help, description=fig_help)
    p_fig.add_argument("number", choices=list(_FIGURES))
    add_runner_args(p_fig)
    add_trace_args(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_sweep = sub.add_parser(
        "security-sweep",
        help="checkpointed, parallel Figure-3/4 substitute sweep",
    )
    p_sweep.add_argument(
        "--models", default="vgg16",
        help="comma-separated victim architectures (default vgg16)",
    )
    p_sweep.add_argument(
        "--ratios", default="0.8,0.5,0.2",
        help="comma-separated encryption ratios (default 0.8,0.5,0.2)",
    )
    p_sweep.add_argument(
        "--variants", default="init-only",
        help="SEAL fine-tuning variants: init-only, frozen, or both "
        "(see docs/threat-model.md)",
    )
    p_sweep.add_argument(
        "--scheme", default="seal-se", metavar="NAME",
        help="protection scheme on the bus (registered scheme name, "
        "default seal-se); non-selective schemes collapse --ratios to 1.0",
    )
    p_sweep.add_argument("--width-scale", type=float, default=0.125)
    p_sweep.add_argument("--train-size", type=int, default=1200)
    p_sweep.add_argument("--test-size", type=int, default=300)
    p_sweep.add_argument("--victim-epochs", type=int, default=10)
    p_sweep.add_argument("--substitute-epochs", type=int, default=5)
    p_sweep.add_argument("--augmentation-rounds", type=int, default=2)
    p_sweep.add_argument("--max-samples", type=int, default=1600)
    p_sweep.add_argument("--transfer-examples", type=int, default=60)
    p_sweep.add_argument(
        "--no-transfer", action="store_true",
        help="skip the Figure-4 transferability measurement",
    )
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--dataset-seed", type=int, default=7)
    p_sweep.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="write one atomic JSON checkpoint per finished cell",
    )
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="skip cells whose checkpoint in --checkpoint-dir validates",
    )
    p_sweep.add_argument(
        "--max-attempts", type=int, default=1, metavar="N",
        help="attempts per cell before it is declared poisoned (default 1)",
    )
    p_sweep.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="kill a cell running longer than this (needs --jobs > 1)",
    )
    add_runner_args(p_sweep)
    add_trace_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_security_sweep)

    p_faults = sub.add_parser(
        "faults",
        help="bus-tampering fault-injection campaign (docs/fault-model.md)",
    )
    p_faults.add_argument(
        "--model", default="mlp", choices=sorted(MODEL_BUILDERS),
        help="victim architecture the protected image derives from",
    )
    p_faults.add_argument("--ratio", type=float, default=0.5, help="encryption ratio")
    p_faults.add_argument(
        "--width-scale", type=float, default=0.25,
        help="channel-width scale factor of the victim (default 0.25)",
    )
    p_faults.add_argument(
        "--faults-per-class", type=int, default=8, metavar="N",
        help="injections per (fault class, line type) pair (default 8)",
    )
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.add_argument(
        "--max-lines", type=int, default=24, metavar="N",
        help="cap lines per heap region (pure-Python AES is slow)",
    )
    p_faults.add_argument(
        "--scheme", default="seal-se", metavar="NAME",
        help="protection scheme under attack (registered scheme name, "
        "default seal-se; see docs/schemes.md)",
    )
    p_faults.add_argument(
        "--no-auth", action="store_true",
        help="drop per-line authentication (shows faults going silent)",
    )
    p_faults.add_argument(
        "--crypto-backend", choices=["scalar", "vector"], default=None,
        help="functional crypto backend (default: REPRO_CRYPTO_BACKEND "
        "or vector; scalar is the pure-Python oracle)",
    )
    p_faults.add_argument(
        "--metrics-out", metavar="PATH",
        help="write campaign metrics (counters/timers) as "
        "repro.metrics/v1 JSON (docs/metrics.md)",
    )
    add_trace_args(p_faults)
    p_faults.set_defaults(func=_cmd_faults)

    p_trace = sub.add_parser(
        "trace",
        help="run any other repro command with tracing enabled",
        description="Wraps another command: `repro trace simulate --model mlp` "
        "behaves exactly like `repro simulate --model mlp --trace-out trace.json`.",
    )
    p_trace.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="trace output path (default trace.json)",
    )
    p_trace.add_argument(
        "--format", dest="trace_format", choices=["json", "chrome"],
        default="json", help="trace export format",
    )
    p_trace.add_argument(
        "rest", nargs=argparse.REMAINDER, metavar="command",
        help="the repro command (with its arguments) to trace",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_serve = sub.add_parser(
        "serve",
        help="seal-as-a-service server over newline-delimited JSON",
        description="Serve seal/unseal/verify/plan over TCP "
        "(protocol repro.serve/v1; reference and runbook in "
        "docs/serving.md).  Concurrent requests coalesce through the "
        "vectorized crypto fastpath; REPRO_CRYPTO_BACKEND (or "
        "--crypto-backend) pins the backend.  SIGTERM/Ctrl-C drains "
        "gracefully (see --drain-timeout) and a shutdown request stops "
        "at once; --metrics-out/--trace-out are written either way.",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; never expose unauthenticated)",
    )
    p_serve.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="TCP port (default 0 = pick a free port, shown in the banner)",
    )
    p_serve.add_argument(
        "--scheme", default="seal-se", metavar="NAME",
        help="protection scheme sealing payload lines (registered scheme "
        "name, default seal-se; see docs/schemes.md)",
    )
    p_serve.add_argument(
        "--crypto-backend", choices=["scalar", "vector"], default=None,
        help="functional crypto backend (default: REPRO_CRYPTO_BACKEND "
        "or vector; scalar is the pure-Python oracle)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=64, metavar="N",
        help="max requests coalesced into one crypto batch (default 64; "
        "a timed-out batch fails every request coalesced into it, so "
        "larger batches amplify timeout collateral — docs/serving.md)",
    )
    p_serve.add_argument(
        "--batch-window", type=float, default=0.0, metavar="SECONDS",
        help="how long a non-full batch lingers for stragglers "
        "(default 0 = dispatch whatever is queued)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=256, metavar="N",
        help="max in-flight requests before 429-style rejection (default 256)",
    )
    p_serve.add_argument(
        "--workers", type=jobs_count, default=0, metavar="N",
        help="crash-isolated worker processes for the crypto "
        "(default 0 = in-process threads, no isolation)",
    )
    p_serve.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help="per-request budget; overruns fail with code 'timeout' and, "
        "with --workers, kill the hung worker and fork a fresh one",
    )
    p_serve.add_argument(
        "--quota-rate", type=float, default=0.0, metavar="LINES_PER_S",
        help="per-tenant token refill rate in cache lines/second "
        "(default 0 = quotas disabled)",
    )
    p_serve.add_argument(
        "--quota-burst", type=float, default=None, metavar="LINES",
        help="per-tenant bucket capacity (default: --quota-rate)",
    )
    p_serve.add_argument(
        "--shutdown-token", metavar="TOKEN", default=None,
        help="require this token in shutdown requests (params.token); "
        "without it, the shutdown op is honoured only on loopback binds",
    )
    p_serve.add_argument(
        "--allow-remote-shutdown", action="store_true",
        help="honour unauthenticated shutdown requests on non-loopback "
        "binds (off by default; prefer --shutdown-token)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="graceful-drain budget on SIGTERM/SIGINT: finish in-flight "
        "requests up to this long while answering new ones with "
        "'unavailable' + retry_after (default 5; a second signal stops "
        "immediately — docs/serving.md 'Drain sequence')",
    )
    p_serve.add_argument(
        "--degraded-threshold", type=int, default=3, metavar="N",
        help="consecutive worker-pool crashes before the circuit opens "
        "and crypto falls back to in-process serial execution "
        "(default 3; only meaningful with --workers)",
    )
    p_serve.add_argument(
        "--degraded-recovery", type=float, default=30.0, metavar="SECONDS",
        help="while degraded, how long between recovery probes that let "
        "one batch try the rebuilt worker pool (default 30)",
    )
    p_serve.add_argument(
        "--metrics-out", metavar="PATH",
        help="on shutdown, write serve.* counters and latency quantiles "
        "as repro.metrics/v1 JSON (docs/metrics.md)",
    )
    p_serve.add_argument(
        "--telemetry-out", metavar="PATH", default=None,
        help="periodically overwrite PATH (atomic) with the latest "
        "repro.telemetry/v1 frame; read it live with "
        "'repro top --file PATH' (docs/observability.md)",
    )
    p_serve.add_argument(
        "--telemetry-interval", type=float, default=2.0, metavar="SECONDS",
        help="flush cadence for --telemetry-out (default 2)",
    )
    p_serve.add_argument(
        "--events-out", metavar="PATH", default=None,
        help="append repro.events/v1 lifecycle events (drain, degraded, "
        "worker crashes) to PATH as NDJSON",
    )
    p_serve.add_argument(
        "--slo-window", type=float, default=60.0, metavar="SECONDS",
        help="rolling window for per-tenant SLO evaluation (default 60)",
    )
    p_serve.add_argument(
        "--slo-availability", type=float, default=0.999, metavar="FRACTION",
        help="per-tenant availability objective; error-budget burn is "
        "measured against 1 minus this (default 0.999)",
    )
    p_serve.add_argument(
        "--slo-p99", type=float, default=0.25, metavar="SECONDS",
        help="per-tenant p99 latency objective over --slo-window "
        "(default 0.25)",
    )
    add_trace_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_top = sub.add_parser(
        "top",
        help="live telemetry dashboard for a running serve instance",
        description="Render repro.telemetry/v1 frames as a terminal "
        "dashboard: throughput, queue depth, worker-pool health, rolling "
        "latency windows, per-tenant SLO burn, and recent events.  Frames "
        "come from a live server's subscribe stream (--host/--port) or "
        "from a --telemetry-out file (--file).  --once prints a single "
        "plain snapshot and exits — scripting/CI friendly.",
    )
    p_top.add_argument(
        "--host", default="127.0.0.1", help="serve host (default 127.0.0.1)"
    )
    p_top.add_argument(
        "--port", type=int, default=7700, metavar="N",
        help="serve port (default 7700)",
    )
    p_top.add_argument(
        "--file", metavar="PATH", default=None,
        help="read frames from a --telemetry-out file instead of "
        "subscribing to a server",
    )
    p_top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval (default 1)",
    )
    p_top.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until interrupted)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="print one snapshot without ANSI control codes and exit",
    )
    p_top.add_argument(
        "--events", type=int, default=6, metavar="N",
        help="recent events to show (default 6)",
    )
    p_top.add_argument(
        "--no-color", action="store_true", help="disable ANSI colour"
    )
    p_top.set_defaults(func=_cmd_top)

    p_report = sub.add_parser(
        "report",
        help="render a text run report from --metrics-out/--trace-out files",
    )
    p_report.add_argument(
        "--metrics", metavar="PATH", help="repro.metrics/v1 document"
    )
    p_report.add_argument(
        "--trace", metavar="PATH", help="repro.trace/v1 document"
    )
    p_report.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="spans to list in the self-time ranking (default 10)",
    )
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sim_backend = getattr(args, "sim_backend", None)
    if sim_backend:
        # Environment (not a plumbed argument) so simulation worker
        # processes spawned by --jobs inherit the same engine choice.
        import os

        from .sim.engine import ENV_VAR as SIM_ENV_VAR

        os.environ[SIM_ENV_VAR] = sim_backend
    trace_out = getattr(args, "trace_out", None)
    tracer = enable_tracing() if trace_out else None
    try:
        code = args.func(args)
        metrics_out = getattr(args, "metrics_out", None)
        if metrics_out:
            path = get_metrics().emit(metrics_out)
            print(f"metrics written to {path}")
        if trace_out:
            path = write_trace_document(
                tracer.snapshot(), trace_out, getattr(args, "trace_format", "json")
            )
            print(f"trace written to {path}")
    finally:
        if tracer is not None:
            disable_tracing()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
