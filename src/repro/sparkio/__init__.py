"""Spark integration: the unified multi-zone index as a DataSource V2.

``datasource.py`` defines the ``umzi`` format: a Python DataSource
(pyspark 4.x) whose reader enumerates the persisted index runs of *both*
zones from shared storage, prunes runs with pushed-down equality/range
filters against each run's synopsis (data skipping across zones), and
emits index entries as Arrow batches. ``scan.py`` builds the unified
consistent view on top with a Catalyst window (latest visible version per
key), plus the no-index full-scan baseline.
"""
from repro.sparkio.datasource import UmziDataSource  # noqa: F401
from repro.sparkio.scan import unified_view, full_scan_baseline  # noqa: F401
