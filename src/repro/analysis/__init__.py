"""Config static analysis: lint rules, SMT-backed shadow detection.

The package plays the role of Batfish's preprocessing sanity checks in
the original Minesweeper pipeline: per-device and cross-device defects
(dangling references, asymmetric sessions, shadowed policy rules) are
reported with ``file:line`` spans *before* the expensive whole-network
SMT verification runs.

Import layering: :mod:`repro.net.policy` and :mod:`repro.core` report
runtime hazards through :mod:`repro.analysis.hazards` (stdlib-only), so
this ``__init__`` must stay importable without pulling in the rule
modules — they import the device models right back.  Engine, rules and
reporters load lazily via ``__getattr__``.
"""

from .diagnostics import (
    AnalysisError,
    ConfigAnalysisWarning,
    Diagnostic,
    Report,
    Severity,
)
from .hazards import (
    DanglingReference,
    DanglingReferenceError,
    DanglingReferenceWarning,
    collect_dangling,
    dangling_reference,
    strict_references,
)

__all__ = [
    "AnalysisError",
    "ConfigAnalysisWarning",
    "Diagnostic",
    "Report",
    "Severity",
    "DanglingReference",
    "DanglingReferenceError",
    "DanglingReferenceWarning",
    "collect_dangling",
    "dangling_reference",
    "strict_references",
    # lazy:
    "analyze_network",
    "analyze_configs",
    "analyze_device",
    "all_rules",
    "format_text",
    "to_json",
    "to_sarif",
]

_LAZY = {
    "analyze_network": "engine",
    "analyze_configs": "engine",
    "analyze_device": "engine",
    "all_rules": "registry",
    "format_text": "reporters",
    "to_json": "reporters",
    "to_sarif": "reporters",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
