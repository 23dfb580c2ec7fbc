"""Personal health index over the ICF hierarchy.

Heterogeneous instrument answers are linked to ICF codes as 0-4 qualifiers,
rolled up through the code hierarchy by reliability-, recency- and
uniqueness-weighted means, and scaled to a 0 (worst) - 100 (best) index,
with per-component profiles and a statistical validation toolkit.

The package imports a module on the first use of one of its names (PEP 562),
so that ``import icfhi`` loads no submodule and a command loads only the
modules it runs.
"""

# module -> the names the package exports from it: those that README.md's
# "Library use" lists; the modules keep other names for their own use
_EXPORTS = {
    "cohort": ("CohortStore", "Person", "RawAnswer", "ingest"),
    "linkage": (
        "AffineMap", "DiscreteMap", "IntervalMap", "Link", "LinkageRule", "QualifierRecord",
        "RuleSet", "apply_rules", "default_rules", "link_answers", "load_rules",
    ),
    "codes": ("IcfCode", "IcfTree", "build_tree", "parse_code"),
    "weighting": ("CurveParams", "WeightingSpec", "make_spec", "parse_gamma"),
    "engine": (
        "AttachedQualifier", "EvaluationReport", "NodeAudit", "NodeResult", "RecordTable",
        "compile_records", "evaluate_table", "qualifiers",
    ),
    "analysis": ("DEFAULT_GROUPS", "VALIDATION_TABLES", "GroupSpec", "Validation", "validate"),
    "errors": (
        "CodeParseError", "ConfigError", "DataError", "EvaluationError", "FitError",
        "IcfHiError", "InsufficientDataError",
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
