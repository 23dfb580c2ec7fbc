"""Personal health index over the ICF hierarchy.

Heterogeneous instrument answers are linked to ICF codes as 0-4 qualifiers,
rolled up through the code hierarchy by reliability-, recency- and
uniqueness-weighted means, and scaled to a 0 (worst) - 100 (best) index,
with per-component profiles and a statistical validation toolkit.

The package imports a module on the first use of one of its names (PEP 562),
so that ``import icfhi`` loads no submodule and a command loads only the
modules it runs.
"""

# module -> the names the package exports from it
_EXPORTS = {
    "analysis": (
        "DEFAULT_GROUPS", "VALIDATION_TABLES", "BoxplotStats", "CohortEvaluator",
        "CorrelationReport", "GroupSpec", "MaxPainReport", "PersonCorrelation", "SequenceBin",
        "Validation", "bin_by_sequence_length", "eqvas_vs_hi", "form_groups", "max_pain_by_day",
        "maxpain_vs_hi", "pearson", "validate",
    ),
    "codes": ("COMPONENTS", "IcfCode", "IcfTree", "build_tree", "parse_code"),
    "cohort": (
        "CohortStore", "Person", "RawAnswer", "SynthConfig", "TreatmentStats", "ingest",
        "load_synth_config", "serialize", "stats", "synthesize",
    ),
    "engine": (
        "AttachedQualifier", "EvaluationReport", "NodeResult", "RecordTable", "compile_records",
        "evaluate_table", "nint", "qualifiers", "scale_index",
    ),
    "errors": (
        "CodeParseError", "ConfigError", "DataError", "EvaluationError", "FitError",
        "IcfHiError", "InsufficientDataError",
    ),
    "linkage": (
        "Link", "LinkageRule", "QualifierRecord", "RuleSet", "apply_rules", "default_rules",
        "link_answers", "load_rules", "records_from_csv", "records_to_csv",
    ),
    "weighting": (
        "CurveParams", "WeightingSpec", "apply_curve", "fit_curve", "gamma_from_fraction",
        "make_spec", "normalize_weights", "parse_gamma",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "formatting"))

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name or a submodule, imported on first access and then
    kept in the package's globals."""
    module = _MODULE_OF.get(name)
    if module is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path (importlib.import_module bypasses it),
    # so that ``python -X importtime`` reports the module
    submodule = __import__(f"{__name__}.{module or name}", fromlist=["*"])
    value = submodule if module is None else getattr(submodule, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
