"""Algorithm registry: name -> singleton instance.

One instance per name serves every caller, the serial engine path,
serving and cluster recomputes included, from several threads at once:
an algorithm keeps no per-run state on ``self`` (it lives in locals, the
``ExecutionContext`` and the kernel objects a run creates).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.algorithms.auto import AutoAlgorithm
from repro.core.algorithms.base import CubeAlgorithm
from repro.core.algorithms.buc import (
    BucAlgorithm,
    BucCustAlgorithm,
    BucOptAlgorithm,
)
from repro.core.algorithms.columnar_sweep import ColumnarSweepAlgorithm
from repro.core.algorithms.counter import CounterAlgorithm
from repro.core.algorithms.naive import NaiveAlgorithm
from repro.core.algorithms.topdown import (
    TdAlgorithm,
    TdCustAlgorithm,
    TdOptAlgorithm,
    TdOptAllAlgorithm,
)
from repro.errors import CubeError

_REGISTRY: Dict[str, CubeAlgorithm] = {
    algorithm.name: algorithm
    for algorithm in (
        AutoAlgorithm(),
        NaiveAlgorithm(),
        CounterAlgorithm(),
        ColumnarSweepAlgorithm(),
        BucAlgorithm(),
        BucOptAlgorithm(),
        BucCustAlgorithm(),
        TdAlgorithm(),
        TdOptAlgorithm(),
        TdOptAllAlgorithm(),
        TdCustAlgorithm(),
    )
}

META = ("AUTO",)  # delegates; correct iff its oracle is truthful


def _declaring(**declared: Tuple[str, ...]) -> Tuple[str, ...]:
    """The registered non-META names whose class declares these values
    (``CubeAlgorithm.requires`` / ``.encodings``): the classes embody
    the preconditions, so they state them."""
    return tuple(
        name
        for name, algorithm in _REGISTRY.items()
        if name not in META
        and all(getattr(algorithm, key) == value for key, value in declared.items())
    )


ALWAYS_CORRECT = _declaring(requires=())
NEEDS_DISJOINTNESS = _declaring(requires=("disjointness",))
NEEDS_BOTH = _declaring(requires=("disjointness", "coverage"))
#: Algorithms with both a legacy dict path and a columnar kernel, chosen
#: by ``ExecutionOptions(encoding=...)``: ``"auto"``/``"columnar"`` run
#: on the encoded columns, ``"dict"`` pins the legacy FactRow path (what
#: the duels time the columnar kernels against).  COLUMNAR and COUNTER
#: are the columnar sweep under two price lists and NAIVE is dict-only;
#: the three ignore the option.
COLUMNAR_CAPABLE = _declaring(encodings=("columnar", "dict"))


def available() -> List[str]:
    """Names of all registered algorithms."""
    return list(_REGISTRY)


def get_algorithm(name: str) -> CubeAlgorithm:
    try:
        return _REGISTRY[name.upper()]
    except KeyError:
        raise CubeError(
            f"unknown algorithm {name!r}; available: {available()}"
        ) from None

