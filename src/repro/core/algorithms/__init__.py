"""Cube computation algorithms (paper Sec. 3 / Sec. 4).

====================  ==========  ==========================  =========
Name                  Family      Requires for correctness     Module
====================  ==========  ==========================  =========
``NAIVE``             oracle      nothing                      naive
``COUNTER``           counter     nothing                      counter
``COLUMNAR``          counter     nothing                      columnar_sweep
``BUC``               bottom-up   nothing                      buc
``BUCOPT``            bottom-up   disjointness                 buc
``BUCCUST``           bottom-up   nothing (schema-guided)      buc
``TD``                top-down    nothing                      topdown
``TDOPT``             top-down    disjointness                 topdown
``TDOPTALL``          top-down    disjointness + coverage      topdown
``TDCUST``            top-down    nothing (schema-guided)      topdown
====================  ==========  ==========================  =========

All are registered in :mod:`repro.core.algorithms.registry` and run
through :func:`repro.core.cube.compute_cube`; the third column is each
class's ``requires`` declaration.
"""

from repro.core.algorithms.registry import available, get_algorithm

__all__ = ["available", "get_algorithm"]
