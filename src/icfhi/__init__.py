"""Personal health index over the ICF hierarchy.

Heterogeneous instrument answers are linked to ICF codes as 0-4 qualifiers,
rolled up through the code hierarchy by reliability-, recency- and
uniqueness-weighted means, and scaled to a 0 (worst) - 100 (best) index,
with per-component profiles and a statistical validation toolkit.
"""

from .analysis import (
    DEFAULT_GROUPS,
    BoxplotStats,
    CohortEvaluator,
    CorrelationReport,
    GroupSpec,
    MaxPainReport,
    PersonCorrelation,
    SequenceBin,
    SweepCell,
    bin_by_sequence_length,
    eqvas_vs_hi,
    form_groups,
    max_pain_by_day,
    maxpain_vs_hi,
    pearson,
    sweep,
)
from .codes import (
    COMPONENTS,
    IcfCode,
    IcfTree,
    build_tree,
    parse_code,
)
from .cohort import (
    CohortStore,
    Person,
    RawAnswer,
    SynthConfig,
    TreatmentStats,
    ingest,
    load_synth_config,
    serialize,
    stats,
    synthesize,
)
from .engine import (
    AttachedQualifier,
    EvaluationReport,
    NodeResult,
    RecordTable,
    compile_records,
    evaluate_table,
    nint,
    qualifiers,
    scale_index,
)
from .errors import (
    CodeParseError,
    ConfigError,
    DataError,
    EvaluationError,
    FitError,
    IcfHiError,
    InsufficientDataError,
)
from .linkage import (
    Link,
    LinkageRule,
    QualifierRecord,
    RuleSet,
    apply_rules,
    default_rules,
    link_answers,
    load_rules,
    records_from_csv,
    records_to_csv,
)
from .weighting import (
    CurveParams,
    WeightingSpec,
    apply_curve,
    fit_curve,
    gamma_from_fraction,
    make_spec,
    normalize_weights,
    parse_gamma,
)

__version__ = "0.1.0"
