"""Model-extraction and adversarial-attack substrate (Sections III-B).

Three adversary strengths — white-box, black-box, and SEAL(r) — are built
by :mod:`repro.attacks.substitute`; :mod:`repro.attacks.security`
configures one Figure-3/4 experiment and trains its victim, and
:func:`repro.attacks.sweep.run_sweep` runs its cells checkpointed and in
parallel — the only Figure-3/4 driver (see ``docs/threat-model.md``).

>>> from repro.attacks import SubstituteConfig, seal_key
>>> seal_key(0.5)
'seal@0.50'
>>> SubstituteConfig().freeze_known        # the paper's exact adversary
True
"""

from .adversarial import AdversarialBatch, IfgsmConfig, craft_adversarial_batch, ifgsm
from .augmentation import AugmentationResult, jacobian_augment, jacobian_step
from .security import PAPER_RATIOS, SecurityExperimentConfig
from .substitute import (
    SubstituteConfig,
    SubstituteResult,
    black_box_substitute,
    make_query_fn,
    seal_substitute,
    train_substitute,
    white_box_substitute,
)
from .sweep import (
    CellResult,
    CheckpointStore,
    SweepResult,
    SweepUnit,
    cell_key,
    plan_units,
    run_cell,
    run_sweep,
    seal_key,
)
from .transferability import TransferResult, measure_transferability

__all__ = [
    "AdversarialBatch",
    "IfgsmConfig",
    "craft_adversarial_batch",
    "ifgsm",
    "AugmentationResult",
    "jacobian_augment",
    "jacobian_step",
    "PAPER_RATIOS",
    "SecurityExperimentConfig",
    "SubstituteConfig",
    "SubstituteResult",
    "black_box_substitute",
    "make_query_fn",
    "seal_substitute",
    "train_substitute",
    "white_box_substitute",
    "CellResult",
    "CheckpointStore",
    "SweepResult",
    "SweepUnit",
    "cell_key",
    "plan_units",
    "run_cell",
    "run_sweep",
    "seal_key",
    "TransferResult",
    "measure_transferability",
]
