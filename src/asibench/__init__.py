"""Robustness benchmarking toolkit: two-factor image perturbations, accuracy
measurement across corruption conditions, and accuracy-stability scoring.

The public names load on first use (PEP 562), so that importing the package,
or a module of it such as the CLI, does not pay for numpy.
"""

import importlib

# each module and the public names it defines: the one statement of both __all__
# and where __getattr__ finds a name
_PUBLIC = {
    "image": ["Image", "read_netpbm", "write_netpbm"],
    "perturb": [
        "Kind", "PerturbationStep", "apply_salt_pepper", "apply_gaussian_noise",
        "rotate", "apply_sequence",
    ],
    "registry": [
        "Condition", "ConditionRegistry", "default_registry", "load_registry", "materialize",
    ],
    "harness": ["AccuracySeries", "evaluate", "load_accuracy_table"],
    "metrics": [
        "BenchmarkScore", "RelativeDelta", "mean_accuracy", "coefficient_of_variation",
        "asi", "score", "compare",
    ],
    "surface": ["SurfaceGrid", "surface_grid", "emit_grid"],
}
_HOMES = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
