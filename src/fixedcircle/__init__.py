"""Fixed-circle verification toolkit.

Exact checkers for circle-fixing conditions on finite and sampled
analytic metric spaces, theorem-level verdicts with falsification
detection, seeded instance generators, a worked-example gallery, and a
CLI with structured reports.
"""

from .conditions import (CONDITION_IDS, ConditionReport, PhiMap,
                         check_banach, check_c1, check_c1_dstar,
                         check_c1_star, check_c2, check_c2_dstar,
                         check_c2_star, check_c3, check_c3_dstar,
                         check_caristi, check_condition,
                         check_identity_condition, check_rhoades,
                         phi_canonical)
from .errors import (AnchorSearchError, ConstraintViolationError,
                     DomainError, FixedCircleError, InvalidMetricError,
                     MalformedInputError)
from .gallery import (GalleryEntry, GalleryReport, list_entries, load_entry,
                      replay_all, replay_entry)
from .generators import (AnchorConstraint, AnchorPoint, GenConfig,
                         SearchResult, build_circle_fixing_map,
                         build_multi_circle_map, choose_anchor,
                         random_metric_space, search_counterexample)
from .metric_core import (ANALYTIC_KINDS, Branch, Circle, MetricSpace,
                          SelfMap, ValidationReport, Violation, circle_of,
                          circle_samples, classify_images, enumerate_circles,
                          fixed_points, is_fixed_circle, validate_metric)
from .verifier import (THEOREM_IDS, Falsification, SweepReport,
                       TheoremVerdict, enumerate_fixed_circles,
                       soundness_sweep, verify_banach, verify_caristi,
                       verify_existence, verify_identity_theorem,
                       verify_theorem, verify_uniqueness)

__version__ = "0.1.0"

__all__ = [
    "ANALYTIC_KINDS", "AnchorConstraint", "AnchorPoint", "AnchorSearchError",
    "Branch", "CONDITION_IDS", "Circle", "ConditionReport",
    "ConstraintViolationError", "DomainError", "Falsification",
    "FixedCircleError", "GalleryEntry", "GalleryReport", "GenConfig",
    "InvalidMetricError", "MalformedInputError", "MetricSpace", "PhiMap",
    "SearchResult", "SelfMap", "SweepReport", "THEOREM_IDS",
    "TheoremVerdict", "ValidationReport", "Violation",
    "build_circle_fixing_map", "build_multi_circle_map", "check_banach",
    "check_c1", "check_c1_dstar", "check_c1_star", "check_c2",
    "check_c2_dstar", "check_c2_star", "check_c3", "check_c3_dstar",
    "check_caristi", "check_condition", "check_identity_condition",
    "check_rhoades", "choose_anchor", "circle_of", "circle_samples",
    "classify_images", "enumerate_circles", "enumerate_fixed_circles",
    "fixed_points", "is_fixed_circle", "list_entries", "load_entry",
    "phi_canonical", "random_metric_space", "replay_all", "replay_entry",
    "search_counterexample", "soundness_sweep", "validate_metric",
    "verify_banach", "verify_caristi", "verify_existence",
    "verify_identity_theorem", "verify_theorem", "verify_uniqueness",
]
