"""Codeword protection: the paper's primary contribution.

The public surface is :func:`~repro.core.schemes.make_scheme`, which
builds a :class:`~repro.core.pipeline.ProtectionPipeline` by name over
members of the :class:`~repro.core.schemes.ProtectionScheme` family.
"""

from repro.core.codeword import fold_words, positioned_fold
from repro.core.maintainer import CodewordMaintainer
from repro.core.pipeline import ProtectionPipeline
from repro.core.regions import CodewordTable
from repro.core.schemes import (
    BaselineScheme,
    CodewordSchemeBase,
    ProtectionScheme,
    SCHEME_ALIASES,
    SCHEME_NAMES,
    make_scheme,
)
from repro.core.precheck import ReadPrecheckScheme
from repro.core.data_codeword import DataCodewordScheme
from repro.core.read_logging import ReadLoggingScheme
from repro.core.hardware import HardwareProtectionScheme
from repro.core.deferred import DeferredMaintenanceScheme
from repro.core.audit import AuditReport, Auditor

__all__ = [
    "fold_words",
    "positioned_fold",
    "CodewordTable",
    "CodewordMaintainer",
    "ProtectionPipeline",
    "ProtectionScheme",
    "CodewordSchemeBase",
    "BaselineScheme",
    "ReadPrecheckScheme",
    "DataCodewordScheme",
    "ReadLoggingScheme",
    "HardwareProtectionScheme",
    "DeferredMaintenanceScheme",
    "Auditor",
    "AuditReport",
    "make_scheme",
    "SCHEME_NAMES",
    "SCHEME_ALIASES",
]
