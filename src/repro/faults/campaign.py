"""Fault-injection campaign: quantify smart encryption's integrity gap.

SEAL's baseline memory protection pairs counter-mode encryption with
per-line authentication (Yan et al. [24]); the robustness claim worth
demonstrating is that every active fault on an *authenticated encrypted*
line is detected, while the plaintext (non-critical) lines that smart
encryption deliberately leaves in the clear have **no integrity at all** —
a bus adversary can flip or splice them silently.  This campaign measures
both sides on one :class:`~repro.faults.tamper.ProtectedImage`:

1. an untampered sweep over every line (the false-positive baseline),
2. for each fault class, ``faults_per_class`` seeded injections against
   encrypted lines and — where the class applies — against plaintext
   lines, each read back, judged, and rolled back.

Replay, counter desync and MAC truncation have no plaintext-line variant:
those lines carry no counter and no tag to attack, which is itself the
point — they are unprotected, not differently protected.

The result object reports detection/silent-corruption rates per (fault
class × line type); :meth:`FaultCampaignResult.problems` encodes the
acceptance contract (100 % detection on encrypted lines, zero false
positives, a nonzero silent rate on plaintext lines) so the CLI and CI
can fail loudly when the pipeline regresses.

>>> result = run_fault_campaign(FaultCampaignConfig(synthetic_lines=12,
...     faults_per_class=2, seed=0))
>>> result.detection_rate("encrypted")
1.0
>>> result.false_positives
0
>>> result.silent_rate("plaintext")
1.0
>>> result.problems()
[]
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.trace import get_tracer, instrument
from .tamper import MAC_BYTES, LINE_BYTES, ProtectedImage, TamperError, TamperingBus

__all__ = [
    "FAULT_CLASSES",
    "PLAINTEXT_FAULT_CLASSES",
    "FaultCampaignConfig",
    "FaultRecord",
    "FaultCampaignResult",
    "build_image",
    "run_fault_campaign",
]

#: Every injected fault class, in report order.
FAULT_CLASSES = (
    "bit-flip",
    "multi-bit-flip",
    "splice",
    "replay",
    "counter-desync",
    "mac-truncation",
)

#: The subset that has a plaintext-line variant (plaintext lines carry no
#: counters or tags, so the remaining classes cannot even be expressed).
PLAINTEXT_FAULT_CLASSES = ("bit-flip", "multi-bit-flip", "splice")

_MULTI_FLIP_BITS = 8


@dataclass(frozen=True)
class FaultCampaignConfig:
    """One reproducible campaign (everything derives from ``seed``).

    With ``synthetic_lines`` set the image is plan-free random content;
    otherwise the blob comes from a real :class:`~repro.core.seal
    .SealScheme` of ``model`` at ``ratio`` (weights deterministically
    initialised from ``seed``), truncated to ``max_lines_per_region``
    lines per allocation to keep the pure-Python crypto tractable.
    """

    model: str = "mlp"
    ratio: float = 0.5
    width_scale: float = 0.25
    seed: int = 0
    faults_per_class: int = 8
    synthetic_lines: int | None = None
    max_lines_per_region: int = 24
    line_bytes: int = LINE_BYTES
    #: Protection scheme under attack (a :mod:`repro.schemes` registry
    #: name).  The scheme picks the cipher (counter vs direct), whether
    #: tags exist at all, the default tag truncation, and which fault
    #: classes are even expressible against its lines.
    scheme: str = "seal-se"
    #: Tag truncation override; ``None`` = the scheme's own tag size.
    tag_bytes: int | None = None
    #: ``False`` drops per-line MACs from an authenticated scheme (shows
    #: faults going silent); irrelevant for schemes without integrity.
    authenticate: bool = True
    #: Crypto backend for the functional encrypt/MAC pipeline
    #: (``None`` = REPRO_CRYPTO_BACKEND / default).  Campaign results are
    #: backend-independent by contract — pinned by the golden-equivalence
    #: suite.
    backend: str | None = None

    @property
    def effective_authenticate(self) -> bool:
        """Do protected lines actually carry verifiable tags?"""
        from ..schemes import get_scheme

        return self.authenticate and get_scheme(self.scheme).authenticated


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault and its observed outcome."""

    fault: str
    target: str  # "encrypted" | "plaintext"
    address: int
    detected: bool
    corrupted: bool

    @property
    def silent(self) -> bool:
        return self.corrupted and not self.detected


@dataclass
class FaultCampaignResult:
    """All records of one campaign plus the clean-sweep baseline."""

    config: FaultCampaignConfig
    model_name: str
    encrypted_lines: int
    plaintext_lines: int
    false_positives: int
    records: list[FaultRecord] = field(default_factory=list)

    # -- aggregation ----------------------------------------------------
    def _select(self, target: str | None = None, fault: str | None = None):
        return [
            record
            for record in self.records
            if (target is None or record.target == target)
            and (fault is None or record.fault == fault)
        ]

    def detection_rate(self, target: str, fault: str | None = None) -> float:
        selected = self._select(target, fault)
        if not selected:
            return float("nan")
        return sum(record.detected for record in selected) / len(selected)

    def silent_rate(self, target: str, fault: str | None = None) -> float:
        """Fraction of injections that corrupted data without detection."""
        selected = self._select(target, fault)
        if not selected:
            return float("nan")
        return sum(record.silent for record in selected) / len(selected)

    def problems(self) -> list[str]:
        """Violations of the integrity contract (empty = campaign passed).

        With authentication on: every encrypted-line fault detected, no
        false positives on untampered lines, and a *nonzero* silent rate
        on plaintext lines (the SE integrity gap must be measurable, not
        assumed).
        """
        issues: list[str] = []
        if self.false_positives:
            issues.append(
                f"{self.false_positives} untampered line(s) failed verification"
            )
        if not self.config.effective_authenticate:
            return issues
        undetected = [
            record
            for record in self._select("encrypted")
            if not record.detected
        ]
        if undetected:
            classes = sorted({record.fault for record in undetected})
            issues.append(
                f"{len(undetected)} fault(s) on authenticated encrypted lines "
                f"went undetected ({', '.join(classes)})"
            )
        plaintext = self._select("plaintext")
        if plaintext and not any(record.silent for record in plaintext):
            issues.append(
                "no silent corruption on plaintext lines — the integrity gap "
                "should be measurable"
            )
        return issues

    def to_dict(self) -> dict[str, object]:
        from ..crypto.fastpath import resolve_backend

        return {
            "config": asdict(self.config),
            "crypto_backend": resolve_backend(self.config.backend),
            "model_name": self.model_name,
            "encrypted_lines": self.encrypted_lines,
            "plaintext_lines": self.plaintext_lines,
            "false_positives": self.false_positives,
            "records": [asdict(record) for record in self.records],
            "rates": {
                "encrypted_detection": self.detection_rate("encrypted"),
                "encrypted_silent": self.silent_rate("encrypted"),
                "plaintext_detection": self.detection_rate("plaintext"),
                "plaintext_silent": self.silent_rate("plaintext"),
            },
        }

    def report(self) -> str:
        """Paper-style summary table of the campaign."""
        from ..eval.reporting import ascii_table  # deferred: avoids import cycle

        rows: list[list[object]] = []
        for fault in FAULT_CLASSES:
            for target in ("encrypted", "plaintext"):
                selected = self._select(target, fault)
                if not selected:
                    continue
                rows.append(
                    [
                        fault,
                        target,
                        len(selected),
                        sum(record.detected for record in selected),
                        sum(record.silent for record in selected),
                    ]
                )
        auth = "on" if self.config.effective_authenticate else "OFF"
        lines = [
            f"fault injection on {self.model_name} @ ratio "
            f"{self.config.ratio:.0%} (scheme {self.config.scheme}, "
            f"authentication {auth}, seed {self.config.seed})",
            f"image: {self.encrypted_lines} encrypted + "
            f"{self.plaintext_lines} plaintext lines of "
            f"{self.config.line_bytes} B; clean sweep false positives: "
            f"{self.false_positives}",
            ascii_table(("fault", "lines", "injected", "detected", "silent"), rows),
        ]
        enc_rate = self.detection_rate("encrypted")
        silent_rate = self.silent_rate("plaintext")
        lines.append(
            f"encrypted-line detection rate: {enc_rate:.1%} | "
            f"plaintext-line silent corruption: {silent_rate:.1%} "
            "(the smart-encryption integrity gap)"
        )
        problems = self.problems()
        if problems:
            lines.append("PROBLEMS: " + "; ".join(problems))
        return "\n".join(lines)


# ----------------------------------------------------------------------
def build_image(config: FaultCampaignConfig) -> ProtectedImage:
    """The campaign's protected blob: synthetic or plan-derived."""
    if config.synthetic_lines is not None:
        return ProtectedImage.synthetic(
            config.synthetic_lines,
            config.ratio,
            seed=config.seed,
            line_bytes=config.line_bytes,
        )
    # Deferred imports: this is the only path that needs the model stack.
    from ..core.seal import SealScheme
    from ..nn.layers import set_init_rng
    from ..nn.models import build_model

    set_init_rng(config.seed)
    model = build_model(config.model, width_scale=config.width_scale)
    scheme = SealScheme(model, config.ratio)
    return ProtectedImage.from_scheme(
        scheme,
        line_bytes=config.line_bytes,
        max_lines_per_region=config.max_lines_per_region,
    )


def _sample(rng: random.Random, population: list[int], k: int) -> list[int]:
    if len(population) < 1:
        raise TamperError("campaign image has no lines of the required kind")
    return [population[rng.randrange(len(population))] for _ in range(k)]


def run_fault_campaign(
    config: FaultCampaignConfig | None = None,
    *,
    metrics: MetricsRegistry | None = None,
) -> FaultCampaignResult:
    """Run one seeded campaign; see the module docstring for the protocol."""
    config = config or FaultCampaignConfig()
    from ..schemes import get_scheme  # deferred: schemes pulls in sim config

    scheme = get_scheme(config.scheme)
    authenticate = config.authenticate and scheme.authenticated
    tag_bytes = config.tag_bytes
    if tag_bytes is None:
        tag_bytes = scheme.tag_bytes or MAC_BYTES
    metrics = metrics if metrics is not None else get_metrics()
    rng = random.Random(config.seed)
    image = build_image(config)
    encrypted = image.encrypted_addresses
    plaintext = image.plaintext_addresses
    if len(encrypted) < 2 or len(plaintext) < 2:
        raise TamperError(
            f"campaign needs at least two lines of each kind, got "
            f"{len(encrypted)} encrypted / {len(plaintext)} plaintext "
            f"(ratio {config.ratio}, {len(image.lines)} lines)"
        )
    tracer = get_tracer()
    with instrument(
        "faults.campaign",
        {
            "model": image.model_name,
            "ratio": config.ratio,
            "scheme": config.scheme,
            "authenticate": authenticate,
            "encrypted_lines": len(encrypted),
            "plaintext_lines": len(plaintext),
        },
        metrics=metrics,
    ):
        bus = TamperingBus(
            image,
            tag_bytes=tag_bytes,
            authenticate=authenticate,
            backend=config.backend,
            cipher="direct" if scheme.mode.value == "direct" else "counter",
        )

        baseline = bus.sweep()
        false_positives = sum(outcome.detected for outcome in baseline)
        metrics.count("faults.false_positives", false_positives)

        result = FaultCampaignResult(
            config=config,
            model_name=image.model_name,
            encrypted_lines=len(encrypted),
            plaintext_lines=len(plaintext),
            false_positives=false_positives,
        )

        def inject(fault: str, target: str, address: int) -> None:
            bit_space = config.line_bytes * 8
            if fault == "bit-flip":
                bus.flip_bits(address, [rng.randrange(bit_space)])
            elif fault == "multi-bit-flip":
                bus.flip_bits(
                    address, rng.sample(range(bit_space), _MULTI_FLIP_BITS)
                )
            elif fault == "splice":
                pool = encrypted if target == "encrypted" else plaintext
                source = address
                while source == address:
                    source = pool[rng.randrange(len(pool))]
                bus.splice(source, address)
            elif fault == "replay":
                bus.refresh(address)  # legit epoch so stale history exists
                bus.replay(address)
            elif fault == "counter-desync":
                bus.desync_counter(address, delta=1 + rng.randrange(7))
            elif fault == "mac-truncation":
                bus.truncate_tag(address, keep_bytes=rng.randrange(0, 4))
            else:  # pragma: no cover — FAULT_CLASSES is the source of truth
                raise TamperError(f"unknown fault class {fault!r}")

        for fault in scheme.fault_classes():
            if fault == "mac-truncation" and not authenticate:
                continue  # no tags exist to truncate
            targets = ["encrypted"]
            if fault in PLAINTEXT_FAULT_CLASSES:
                targets.append("plaintext")
            for target in targets:
                population = encrypted if target == "encrypted" else plaintext
                with tracer.span(
                    "faults.scenario", {"fault": fault, "target": target}
                ) as scenario:
                    detected_count = 0
                    for address in _sample(rng, population, config.faults_per_class):
                        inject(fault, target, address)
                        outcome = bus.read(address)
                        record = FaultRecord(
                            fault=fault,
                            target=target,
                            address=address,
                            detected=outcome.detected,
                            corrupted=outcome.corrupted,
                        )
                        result.records.append(record)
                        metrics.count("faults.injected")
                        if record.detected:
                            detected_count += 1
                            metrics.count("faults.detected")
                        if record.silent and target == "plaintext":
                            metrics.count("faults.silent.plaintext")
                        if not record.detected and target == "encrypted":
                            metrics.count("faults.undetected.encrypted")
                        if scenario:
                            scenario.event(
                                "injection",
                                {
                                    "address": address,
                                    "detected": record.detected,
                                    "corrupted": record.corrupted,
                                },
                            )
                        bus.restore(address)
                    if scenario:
                        scenario.set_attr("injected", config.faults_per_class)
                        scenario.set_attr("detected", detected_count)
    return result
