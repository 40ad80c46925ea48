"""Weakly supervised geospatial pipeline for multi-species survey data.

Each name is imported from its own module (``geoflora.pipeline``, ``geoflora.ingest``, ...).
"""

__version__ = "0.1.0"

# The one root binding, kept because perfbench/test_perfbench.py::TestTracer::test_patches_every_binding_and_restores patches it
from .pseudolabel import merge_points
