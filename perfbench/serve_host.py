"""Host process of the serve workloads: ``repro serve`` plus, in traced
runs, the benchmark's layer wrappers.

Usage (normally through run.py)::

    python3 perfbench/serve_host.py --report PATH [--probes] -- <repro serve args>

Runs the server until it is shut down, then writes ``PATH``: the peak
resident memory of the server and of its pool worker, and what the
wrappers recorded (in the server and, shipped back per batch, in the
worker).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def reap_children(timeout: float = 5.0) -> None:
    """Wait for the pool worker, so its peak memory counts in RUSAGE_CHILDREN."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", required=True)
    parser.add_argument("--probes", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    import probes

    if args.probes:
        probes.install_serve()
    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])
    reap_children()
    report = {
        "rss_server_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rss_worker_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "probes": probes.RECORDER.drain(),
    }
    Path(args.report).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
