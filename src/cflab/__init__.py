"""Exact continued-fraction cylinder arithmetic and block-frequency experiments.

The names below are resolved on first use (PEP 562): `from cflab import
select_ap` imports `cflab.streams` then, and `import cflab.verify` loads only
`cfcore`, `measure` and `verify`, never the stream and counting modules it
does not read.
"""

from importlib import import_module

# each exported name and the submodule it lives in
_HOMES = {
    "CylinderInterval": "cfcore",
    "UsageError": "cfcore",
    "Word": "cfcore",
    "cf_of_rational": "cfcore",
    "cylinder_interval": "cfcore",
    "format_word": "cfcore",
    "iter_words": "cfcore",
    "parse_word": "cfcore",
    "reverse": "cfcore",
    "word": "cfcore",
    "BoundedMeasure": "measure",
    "LogRational": "measure",
    "joint_pattern_measure": "measure",
    "measure_of_cylinder": "measure",
    "ModeDescriptor": "stats",
    "StreamStats": "stats",
    "count_aligned": "stats",
    "count_chunked": "stats",
    "count_disjoint": "stats",
    "count_overlapping": "stats",
    "frequency_report": "stats",
    "DigitSource": "streams",
    "limit": "streams",
    "parse_source_spec": "streams",
    "select_ap": "streams",
    "source_concat_normal": "streams",
    "source_decimal_interval": "streams",
    "source_periodic": "streams",
    "source_random_real": "streams",
    "source_rational": "streams",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    home = _HOMES.get(name)
    if home is None:
        # `from cflab import stats` then falls back to the submodule import
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
