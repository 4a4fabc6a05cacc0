"""Fixed-circle verification toolkit.

Exact checkers for circle-fixing conditions on finite and sampled
analytic metric spaces, theorem-level verdicts with falsification
detection, seeded instance generators, a worked-example gallery, and a
CLI with structured reports. Public names resolve lazily: ``import
fixedcircle`` loads no submodule, and a name's first use loads its own.
"""

from importlib import import_module

__version__ = "0.1.0"

# Owning module -> the public names it contributes.
_EXPORTS = {
    "conditions": ("ConditionReport", "PhiMap", "check_banach", "check_c1",
                   "check_c1_star", "check_c2", "check_c2_dstar",
                   "check_c2_star", "check_c3", "check_c3_dstar",
                   "check_caristi", "check_condition", "check_conditions",
                   "check_identity_condition", "check_rhoades",
                   "phi_canonical"),
    "errors": ("AnchorSearchError", "ConstraintViolationError", "DomainError",
               "FixedCircleError", "InvalidMetricError",
               "MalformedInputError"),
    "gallery": ("GalleryEntry", "GalleryReport", "list_entries", "load_entry",
                "replay_all", "replay_entry"),
    "generators": ("AnchorConstraint", "AnchorPoint", "GenConfig",
                   "SearchResult", "build_circle_fixing_map",
                   "build_multi_circle_map", "choose_anchor",
                   "random_metric_space", "search_counterexample"),
    "metric_core": ("ANALYTIC_KINDS", "Branch", "Circle", "MetricSpace",
                    "SelfMap", "ValidationReport", "Violation", "circle_of",
                    "circle_samples", "classify_images", "enumerate_circles",
                    "enumerate_fixed_circles", "fixed_points",
                    "is_fixed_circle", "validate_metric"),
    "registry": ("CONDITION_IDS", "THEOREM_IDS"),
    "verifier": ("Falsification", "SweepReport", "TheoremVerdict",
                 "soundness_sweep", "verify_banach", "verify_caristi",
                 "verify_existence", "verify_identity_theorem",
                 "verify_theorem", "verify_uniqueness"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module("." + _OWNER[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
