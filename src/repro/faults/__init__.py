"""Deterministic fault injection for the store/queue/scheduler stack.

See :mod:`repro.faults.injector` for the full contract: named fault sites
(:data:`FAULT_SITES`), the ``REPRO_FAULTS`` environment syntax, and the
seeded decision stream that makes chaos runs exactly reproducible.
"""

from .injector import (
    ENV_FAULTS,
    ENV_FAULTS_SEED,
    FAULT_MODES,
    FAULT_SITES,
    FaultPlan,
    FaultRule,
    InjectedFault,
    clear_faults,
    current_plan,
    fault_point,
    faults_active,
    injected_faults,
    install_faults,
    maybe_corrupt,
    parse_faults,
)

__all__ = [
    "ENV_FAULTS",
    "ENV_FAULTS_SEED",
    "FAULT_MODES",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "clear_faults",
    "current_plan",
    "fault_point",
    "faults_active",
    "injected_faults",
    "install_faults",
    "maybe_corrupt",
    "parse_faults",
]
