"""Exact continued-fraction cylinder arithmetic and block-frequency experiments."""

from .cfcore import (
    CylinderInterval,
    UsageError,
    Word,
    cf_of_rational,
    cylinder_interval,
    format_word,
    iter_words,
    parse_word,
    reverse,
    word,
)
from .measure import (
    BoundedMeasure,
    LogRational,
    joint_pattern_measure,
    measure_of_cylinder,
)
from .stats import (
    ModeDescriptor,
    StreamStats,
    count_aligned,
    count_chunked,
    count_disjoint,
    count_overlapping,
    frequency_report,
    select_ap,
)
from .streams import (
    DigitSource,
    limit,
    parse_source_spec,
    source_concat_normal,
    source_decimal_interval,
    source_periodic,
    source_random_real,
    source_rational,
)

__version__ = "0.1.0"
