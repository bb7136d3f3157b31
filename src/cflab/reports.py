"""Byte-deterministic rendering of reports to JSON and CSV.

Identical inputs must yield identical bytes: floats go through repr (via
json) or str, rationals through str (or a bounded form when huge), dict
key order is fixed by construction, newlines are always "\\n", and nothing
time- or host-dependent is ever written.  `render_measure` builds the
measure report itself; experiment reports come built from `experiments`,
and verify reports from each result's `report()`.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction

from .cfcore import Word, cylinder_interval, format_word
from .measure import measure_of_cylinder

# Rationals with a part longer than this render in a bounded form; 8192 bits
# is about 2466 decimal digits, inside the interpreter's default limit on
# int-to-str conversion, which this module leaves alone.
EXACT_RATIONAL_BITS = 8192


def _bounded_rational(x: Fraction) -> str:
    """str(x), or an approximation plus part sizes when p or q is huge."""
    num_bits, den_bits = x.numerator.bit_length(), x.denominator.bit_length()
    if max(num_bits, den_bits) <= EXACT_RATIONAL_BITS:
        return str(x)
    return f"~{float(x)!r} ({num_bits}-bit/{den_bits}-bit rational)"


def render_json(report: dict) -> bytes:
    return (json.dumps(report, indent=2) + "\n").encode()


def _csv_rows(rows) -> str:
    import csv  # here, so that runs that write no CSV do not load it

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def render_measure(w: Word, with_interval: bool, fmt: str | None) -> bytes:
    """gamma(C_w), and the cylinder's endpoints if asked, as JSON, as CSV, or (fmt None) as text.

    CSV splits the interval into interval_lo and interval_hi columns.
    """
    m = measure_of_cylinder(w)
    report = {
        "word": format_word(w),
        "log2_arg": _bounded_rational(m.arg),
        "float": round(m.float, 6),
    }
    interval = [_bounded_rational(end) for end in cylinder_interval(w)] if with_interval else []
    if fmt == "json":
        return render_json({**report, "interval": interval} if interval else report)
    if fmt == "csv":
        report.update(zip(("interval_lo", "interval_hi"), interval))
        return _csv_rows([report.keys(), report.values()]).encode()
    text = f"log2({report['log2_arg']}) ≈ {report['float']:.6f}\n"
    return (text + ("({}, {})\n".format(*interval) if interval else "")).encode()


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
