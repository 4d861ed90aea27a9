"""Information Bottleneck efficiency frontiers for discrete naming systems."""

__version__ = "0.1.0"

from .core import (
    Distribution,
    IBNamingError,
    MeaningSpace,
    NamingSystem,
    ValidationError,
    marginal_word_distribution,
    validate_meaning_space,
    validate_naming_system,
)
from .measures import (
    ListenerModel,
    SupportViolationError,
    accuracy,
    bayesian_listener,
    complexity,
    entropy,
    expected_distortion,
    ib_objective,
    kl_divergence,
    mutual_information_from_joint,
)
from .solver import (
    DEFAULT_CATEGORY_MASS_THRESHOLD,
    CategorySelectionError,
    FingerprintMismatchError,
    Frontier,
    FrontierPoint,
    SolverConfig,
    anneal_frontier,
    default_beta_grid,
    select_most_informative_with_k,
    solve_at_beta,
)
from .frontier_io import load_frontier, save_frontier
from .analysis import (
    BaselineSummary,
    CategoryProfile,
    EfficiencyReport,
    HierarchyLayer,
    HierarchyReport,
    category_profiles,
    fit_beta,
    gnid,
    hierarchy_report,
    mixture_complexity,
    permutation_baseline,
)
from .ingest import (
    FeatureTable,
    IterativeScalingError,
    NamingCounts,
    SimilarityMatrix,
    attach_need,
    li_prior,
    meaning_space_from_features,
    meaning_space_from_similarity,
    naming_system_from_counts,
    naming_weights_from_counts,
    reorder_naming_system,
)

__all__ = [name for name in dir() if not name.startswith("_")]
