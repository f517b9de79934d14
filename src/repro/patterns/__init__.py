"""Tree patterns, their textual syntax, and relaxations.

The paper specifies grouping by a *tree pattern* plus a grouping list
(Sec. 2.1), and generates the cube by relaxing the pattern (Sec. 2.2):

- **PC-AD** — parent/child edge generalized to ancestor/descendant;
- **SP**    — sub-tree promotion (re-attach under the grandparent with a
  descendant edge);
- **LND**   — leaf node deletion (make a leaf optional / drop a dimension).

Public surface:

- :class:`~repro.patterns.pattern.TreePattern` /
  :class:`~repro.patterns.pattern.PatternNode`
- :func:`~repro.patterns.parse.parse_pattern` — ``a[b/c][.//d]/@id`` syntax
- :mod:`repro.patterns.relaxation` — the three operators and the most
  relaxed fully instantiated pattern of Fig. 2.
"""

from repro.patterns.pattern import EdgeAxis, PatternNode, TreePattern
from repro.patterns.parse import parse_pattern
from repro.patterns.relaxation import (
    Relaxation,
    apply_lnd,
    apply_pc_ad,
    apply_sp,
    most_relaxed_pattern,
)

__all__ = [
    "EdgeAxis",
    "PatternNode",
    "TreePattern",
    "parse_pattern",
    "Relaxation",
    "apply_lnd",
    "apply_pc_ad",
    "apply_sp",
    "most_relaxed_pattern",
]
