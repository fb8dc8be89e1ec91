"""The paper's core contribution: spanner evaluation on SLP-compressed docs.

* :mod:`~repro.core.membership` — compressed membership (Lemma 4.5);
* :mod:`~repro.core.nonemptiness` — Theorem 5.1.1;
* :mod:`~repro.core.model_checking` — Theorem 5.1.2;
* :mod:`~repro.core.matrices` — Lemma 6.5 preprocessing;
* :mod:`~repro.core.computation` — Theorem 7.1;
* :mod:`~repro.core.counting` — counting and ranked access (the canonical
  order enumeration streams in);
* :mod:`~repro.core.enumeration` — Theorem 8.10 (one explicit-stack walk
  fusing EnumAll with the tree yields);
* :mod:`~repro.core.evaluator` — the one-stop facade.
"""

from repro.core.computation import compute, compute_marker_sets
from repro.core.counting import (
    CountingTables,
    RankedAccess,
    count_results,
    ranked_access,
)
from repro.core.enumeration import enumerate_marker_sets, enumerate_spanner
from repro.core.evaluator import CompressedSpannerEvaluator
from repro.core.incremental import IncrementalSpannerIndex
from repro.core.matrices import BOT, EMP, ONE, Preprocessing, preprocess
from repro.core.membership import slp_in_language, transition_matrices
from repro.core.model_checking import model_check, splice_markers
from repro.core.nonemptiness import is_nonempty, project_to_sigma

__all__ = [
    "BOT",
    "CompressedSpannerEvaluator",
    "CountingTables",
    "EMP",
    "IncrementalSpannerIndex",
    "ONE",
    "Preprocessing",
    "RankedAccess",
    "compute",
    "compute_marker_sets",
    "count_results",
    "ranked_access",
    "enumerate_marker_sets",
    "enumerate_spanner",
    "is_nonempty",
    "model_check",
    "preprocess",
    "project_to_sigma",
    "slp_in_language",
    "splice_markers",
    "transition_matrices",
]
