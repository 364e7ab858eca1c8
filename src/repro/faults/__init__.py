"""Fault injection and hardening: tampered buses, dying workers, bad files.

Two halves, one subsystem:

* :mod:`~repro.faults.tamper` / :mod:`~repro.faults.campaign` attack the
  *protected model blob* — a :class:`~repro.faults.tamper.TamperingBus`
  injects bit flips, splices, replays, counter desyncs and MAC truncation
  into SEAL-protected lines, and
  :func:`~repro.faults.campaign.run_fault_campaign` quantifies what the
  per-line authenticator catches (everything on encrypted lines) versus
  what smart encryption leaves silently corruptible (plaintext lines).
* :mod:`~repro.faults.runner` / :mod:`~repro.faults.worker` /
  :mod:`~repro.faults.chaos` / :mod:`~repro.faults.quarantine` harden the
  *experiment pipeline* and the serving workers — per-unit timeouts,
  bounded deterministic retry, crash isolation with named failures,
  environment-driven chaos hooks to prove it all works, and quarantine
  for corrupt on-disk artifacts.

The runner half is imported eagerly (it is a dependency of the parallel
runners); the tamper/campaign half is loaded lazily so importing
``repro.sim.parallel`` never drags in the crypto and model stack.
"""

from __future__ import annotations

from .chaos import (
    CHAOS_ENV_VAR,
    ChaosConfig,
    ChaosFault,
    chaos_io_action,
    chaos_probe,
)
from .quarantine import QUARANTINE_SUFFIX, quarantine_artifact
from .runner import RetryPolicy, UnitExecutionError, run_hardened

__all__ = [
    "CHAOS_ENV_VAR",
    "ChaosConfig",
    "ChaosFault",
    "chaos_io_action",
    "chaos_probe",
    "QUARANTINE_SUFFIX",
    "quarantine_artifact",
    "RetryPolicy",
    "UnitExecutionError",
    "run_hardened",
    # lazy (see __getattr__):
    "FAULT_CLASSES",
    "FaultCampaignConfig",
    "FaultCampaignResult",
    "FaultRecord",
    "ProtectedImage",
    "TamperError",
    "TamperingBus",
    "run_fault_campaign",
]

_LAZY = {
    "FAULT_CLASSES": "campaign",
    "FaultCampaignConfig": "campaign",
    "FaultCampaignResult": "campaign",
    "FaultRecord": "campaign",
    "run_fault_campaign": "campaign",
    "ProtectedImage": "tamper",
    "TamperError": "tamper",
    "TamperingBus": "tamper",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), name)
