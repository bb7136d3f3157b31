"""Byte-deterministic rendering of reports to JSON and CSV.

Identical inputs must yield identical bytes: floats go through repr (via
json) or str, dict key order is fixed by construction, newlines are always
"\\n", and nothing time- or host-dependent is ever written.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .cfcore import Word, cylinder_interval, format_rational, format_word
from .measure import BoundedMeasure, measure_of_cylinder

# Rationals with a part longer than this render in a bounded form; 8192 bits
# is about 2466 decimal digits, inside the interpreter's default limit on
# int-to-str conversion, which this module leaves alone.
EXACT_RATIONAL_BITS = 8192


def _bounded_rational(x: Fraction, exact=format_rational) -> str:
    """`exact(x)`, or an approximation plus part sizes when p or q is huge."""
    num_bits, den_bits = x.numerator.bit_length(), x.denominator.bit_length()
    if max(num_bits, den_bits) <= EXACT_RATIONAL_BITS:
        return exact(x)
    return f"~{float(x)!r} ({num_bits}-bit/{den_bits}-bit rational)"


def _interval_text(w: Word) -> list[str]:
    # str, not format_rational: an endpoint of 1 prints as "1"
    iv = cylinder_interval(w)
    return [_bounded_rational(iv.lo, str), _bounded_rational(iv.hi, str)]


def measure_report(w: Word, with_interval: bool = False) -> dict:
    m = measure_of_cylinder(w)
    report = {
        "word": format_word(w),
        "log2_arg": _bounded_rational(m.arg),
        "float": round(m.float, 6),
    }
    if with_interval:
        report["interval"] = _interval_text(w)
    return report


def bounded_measure_report(bm: BoundedMeasure, **extra) -> dict:
    lo, hi = bm.bracket()
    report = dict(extra)
    report.update(
        {
            "log2_arg": format_rational(bm.lower.arg),
            "float": round(bm.lower.float, 6),
            "tail_log2_arg": format_rational(bm.tail_bound.arg),
            "bracket": [lo, hi],
        }
    )
    return report


def render_json(report: dict) -> bytes:
    return (json.dumps(report, indent=2) + "\n").encode()


def _csv_rows(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def render_measure(w: Word, with_interval: bool, fmt: str | None) -> bytes:
    """`measure_report(w, with_interval)` as JSON, as CSV, or (fmt None) as text.

    CSV splits the interval into interval_lo and interval_hi columns.
    """
    report = measure_report(w, with_interval)
    if fmt == "json":
        return render_json(report)
    interval = report.pop("interval", None)
    if fmt == "csv":
        if interval:
            report.update({"interval_lo": interval[0], "interval_hi": interval[1]})
        return _csv_rows([report.keys(), report.values()]).encode()
    text = f"log2({report['log2_arg']}) ≈ {report['float']:.6f}\n"
    return (text + (f"({interval[0]}, {interval[1]})\n" if interval else "")).encode()


def render_experiment_csv(report: dict) -> bytes:
    """Config echo as comment lines, then the rows: the first row's keys head the columns.

    Every row has the same keys in the same order (experiments._stat_rows).
    """
    comments = ""
    for key, value in report["config"].items():
        if isinstance(value, list):
            value = ";".join(str(v) for v in value)
        comments += f"# {key}={value}\n"
    comments += f"# verdict={report['verdict']}\n"
    rows = report["rows"]  # never empty: every run has a final checkpoint
    return (comments + _csv_rows([rows[0].keys(), *(row.values() for row in rows)])).encode()


def render_report(report: dict, fmt: str) -> bytes:
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_experiment_csv(report)
    raise ValueError(f"unknown format {fmt!r}")
