"""The package namespace: each exported name resolves on first use to its home module's object."""

import importlib
import re

import pytest

import cflab

# every name the package exports, by the submodule that defines it
EXPORTS = {
    "cfcore": [
        "CylinderInterval",
        "UsageError",
        "Word",
        "cf_of_rational",
        "cylinder_interval",
        "format_word",
        "iter_words",
        "parse_word",
        "reverse",
        "word",
    ],
    "measure": ["BoundedMeasure", "LogRational", "joint_pattern_measure", "measure_of_cylinder"],
    "stats": [
        "ModeDescriptor",
        "StreamStats",
        "count_aligned",
        "count_chunked",
        "count_disjoint",
        "count_overlapping",
        "frequency_report",
    ],
    "streams": [
        "DigitSource",
        "limit",
        "parse_source_spec",
        "select_ap",
        "source_concat_normal",
        "source_decimal_interval",
        "source_periodic",
        "source_random_real",
        "source_rational",
    ],
}


@pytest.mark.parametrize(
    "home,name", [(home, name) for home, names in EXPORTS.items() for name in names]
)
def test_each_export_is_its_home_modules_object(home, name):
    namespace = {}
    exec(f"from cflab import {name}", namespace)
    value = getattr(importlib.import_module(f"cflab.{home}"), name)
    assert namespace[name] is value
    assert getattr(cflab, name) is value
    # bound on first use, so later lookups skip the module __getattr__
    assert vars(cflab)[name] is value


def test_all_is_exactly_the_exports():
    assert sorted(cflab.__all__) == sorted(name for names in EXPORTS.values() for name in names)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from cflab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(cflab.__all__)


def test_dir_lists_all():
    assert set(cflab.__all__) <= set(dir(cflab))
    assert "__version__" in dir(cflab)


def test_submodules_still_import_by_from():
    namespace = {}
    exec("from cflab import stats, streams", namespace)
    assert namespace["stats"] is importlib.import_module("cflab.stats")
    assert namespace["streams"] is importlib.import_module("cflab.streams")


def test_unknown_name_fails_with_the_standard_wording():
    assert not hasattr(cflab, "nope")
    with pytest.raises(AttributeError, match=re.escape("module 'cflab' has no attribute 'nope'")):
        cflab.nope
    with pytest.raises(ImportError, match=re.escape("cannot import name 'nope' from 'cflab'")):
        exec("from cflab import nope", {})
