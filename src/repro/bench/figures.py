"""One experiment definition per figure of the paper (Figs. 4-10).

Every spec records the paper's setting, the workload that reproduces it
and the paper's statements about the figure as executable
:class:`Claim` s; :func:`run_figure` executes the sweep and
:meth:`FigureSpec.check` evaluates the claims on it — on fresh runs
(``x3 bench``) and on the rows of the committed ``BENCH_figures.json``
alike.

Scale note: the paper runs 10^4-10^6 matching trees on a 2007 disk-bound
C++ system; this pure-Python reproduction defaults to a few hundred to a
few thousand facts.  The *shapes* (winner ordering, crossovers, blow-ups)
are scale-free here because they are driven by lattice size, cube
density and the summarizability regime, all of which are preserved.  Use
``scale`` to grow the fact count and ``axes`` to extend the sweep
(claims are only enforced on a spec's own sweep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import AlgorithmRun, run_config
from repro.datagen.workload import WorkloadConfig

DEFAULT_AXES: Tuple[int, ...] = (2, 3, 4, 5, 6)
DEFAULT_MEMORY_ENTRIES = 4000
"""Operator memory: sized so COUNTER starts multi-pass thrashing at high
axis counts, like the paper's 2 GB Windows process limit did."""


def series_name(run: AlgorithmRun) -> str:
    """``BUC``, or ``BUC[dict]`` for a run pinned to a non-default
    encoding, so a duel figure keeps both kernels visible."""
    if run.encoding == "auto":
        return run.algorithm
    return f"{run.algorithm}[{run.encoding}]"


class Sweep:
    """A figure's runs indexed the way its claims read them: series
    name, then axis count — ``sweep.sim["BUC"][4]`` (simulated
    seconds), ``sweep.passes["COUNTER"][6]``, ``sweep.correct["TDOPT"][2]``
    (``None`` when the run was not validated)."""

    def __init__(self, runs: Sequence[AlgorithmRun]) -> None:
        self.sim: Dict[str, Dict[int, float]] = {}
        self.passes: Dict[str, Dict[int, int]] = {}
        self.correct: Dict[str, Dict[int, Optional[bool]]] = {}
        for run in runs:
            name = series_name(run)
            self.sim.setdefault(name, {})[run.n_axes] = run.simulated_seconds
            self.passes.setdefault(name, {})[run.n_axes] = run.passes
            self.correct.setdefault(name, {})[run.n_axes] = run.correct
        self.axes = sorted({run.n_axes for run in runs})


Check = Callable[[Sweep], Optional[bool]]


@dataclass(frozen=True)
class Claim:
    """One statement the paper makes about a figure, made executable.

    ``check`` is evaluated on the figure's own sweep and must return
    ``reproduced``.  The gate is strict in both directions: a known
    deviation (``reproduced=False``) that starts holding fails too, so
    the deviations stay an exact to-do list rather than a waiver.
    """

    text: str
    check: Check
    reproduced: bool = True

    def outcome(self, sweep: Sweep) -> Optional[bool]:
        """Whether the statement holds on ``sweep``; ``None`` when the
        sweep cannot say (a correctness claim on unvalidated runs, or a
        sweep point an ``--axes`` override left out)."""
        try:
            return self.check(sweep)
        except KeyError:
            return None


def below(*names: str, factor: float = 1.0) -> Check:
    """At every sweep point cost ascends along ``names``, each step by
    more than ``factor`` times."""
    return lambda s: all(
        s.sim[low][k] * factor < s.sim[high][k]
        for low, high in zip(names, names[1:])
        for k in s.axes
    )


def lowest(*names: str) -> Check:
    """``names`` ascend and all sit under every other series, at every
    sweep point."""
    return lambda s: below(*names)(s) and all(
        below(names[-1], other)(s) for other in s.sim if other not in names
    )


def outgrows(fast: str, slow: str, factor: float = 1.0) -> Check:
    """From 2 to 6 axes ``fast``'s cost grows more than ``factor`` times
    as much as ``slow``'s."""
    first, last = DEFAULT_AXES[0], DEFAULT_AXES[-1]
    return lambda s: (
        s.sim[fast][last] / s.sim[fast][first]
        > factor * s.sim[slow][last] / s.sim[slow][first]
    )


def thrashes_from(onset: int) -> Check:
    """COUNTER runs one pass below ``onset`` axes and a strictly growing
    number of passes from there on."""

    def check(s: Sweep) -> bool:
        passes = s.passes["COUNTER"]
        multi = [passes[k] for k in s.axes if k >= onset]
        return (
            all(passes[k] == 1 for k in s.axes if k < onset)
            and passes[onset] > 1
            and multi == sorted(set(multi))
        )

    return check


def wrong_exactly(*names: str) -> Check:
    """``--validate`` flags the runs of ``names``, and only those, as
    differing from the NAIVE oracle — at every sweep point."""

    def check(s: Sweep) -> Optional[bool]:
        verdicts = [
            (name in names, correct)
            for name, by_axes in s.correct.items()
            for correct in by_axes.values()
        ]
        if any(correct is None for _, correct in verdicts):
            return None
        return all(wrong != correct for wrong, correct in verdicts)

    return check


def all_of(*checks: Check) -> Check:
    return lambda s: all(check(s) for check in checks)


@dataclass(frozen=True)
class FigureSpec:
    """A paper figure, the workload sweep that regenerates it and the
    statements the sweep is held to."""

    figure_id: str
    title: str
    density: str
    coverage: bool
    disjoint: bool
    algorithms: Tuple[str, ...]
    base_facts: int
    claims: Tuple[Claim, ...]
    kind: str = "treebank"  # or "dblp"
    axes: Tuple[int, ...] = DEFAULT_AXES
    memory_entries: int = DEFAULT_MEMORY_ENTRIES
    #: Each algorithm is timed once per encoding; the duel figures race
    #: the legacy dict kernels against the columnar ones.
    encodings: Tuple[str, ...] = ("auto",)

    def configs(self, scale: float = 1.0) -> List[WorkloadConfig]:
        n_facts = max(50, int(self.base_facts * scale))
        if self.kind == "dblp":
            return [
                WorkloadConfig(kind="dblp", n_facts=n_facts, n_axes=4)
            ]
        return [
            WorkloadConfig(
                kind="treebank",
                n_facts=n_facts,
                n_axes=n_axes,
                density=self.density,
                coverage=self.coverage,
                disjoint=self.disjoint,
            )
            for n_axes in self.axes
        ]

    def check(
        self, runs: Sequence[AlgorithmRun]
    ) -> List[Tuple[Claim, Optional[bool]]]:
        """Every claim with its outcome on ``runs``."""
        sweep = Sweep(runs)
        return [(claim, claim.outcome(sweep)) for claim in self.claims]


# ----------------------------------------------------------------------
# the paper's statements, figure by figure (outcomes: EXPERIMENTS.md)
# ----------------------------------------------------------------------
PR8_CAUSE = (
    "cause: PR 8 moved the BUC/TD families onto columnar kernels charged as"
    " linear counting sorts, "
)
COUNTER_LEFT_BEHIND = PR8_CAUSE + "while COUNTER kept its dict-path charges"

ALL_CORRECT = Claim("every run returns the NAIVE oracle's cube", wrong_exactly())
UNSAFE_WRONG = wrong_exactly("BUCOPT", "TDOPT", "TDOPTALL")
BUC_TD_ORDER = Claim(
    "BUCOPT < BUC < TDOPT < TD at every sweep point (disjointness knowledge"
    " pays in both families), and BUC stays below COUNTER",
    all_of(below("BUCOPT", "BUC", "TDOPT", "TD"), below("BUC", "COUNTER")),
)
BUC_FLATTEST = Claim(
    "the BUC family is the flattest: TD, TDOPT and COUNTER each grow more"
    " than twice as much as BUC from 2 to 6 axes (the exponential number of"
    " sorts; counters outgrowing memory)",
    all_of(*(outgrows(name, "BUC", 2) for name in ("TD", "TDOPT", "COUNTER"))),
)

FIG4_CLAIMS = (
    BUC_TD_ORDER,
    BUC_FLATTEST,
    Claim(
        "COUNTER is fine until its counters outgrow memory: one pass at 2-3"
        " axes, multi-pass thrash from 4",
        thrashes_from(4),
    ),
    ALL_CORRECT,
)
FIG5_CLAIMS = (
    BUC_TD_ORDER,
    BUC_FLATTEST,
    Claim(
        "at 4x the facts COUNTER thrashes from 3 axes already",
        thrashes_from(3),
    ),
    ALL_CORRECT,
)
FIG6_CLAIMS = (
    Claim(
        "the BUC family survives: BUCOPT < BUC < every other series at every"
        " sweep point",
        lowest("BUCOPT", "BUC"),
    ),
    Claim(
        "COUNTER, TD and TDOPT blow up at high axes (the paper's DNF at 7):"
        " each grows more than 3x as much as BUC from 2 to 6 axes",
        all_of(*(outgrows(name, "BUC", 3) for name in ("COUNTER", "TD", "TDOPT"))),
    ),
    Claim(
        "COUNTER's thrashing compounds: multi-pass from 4 axes",
        thrashes_from(4),
    ),
    Claim(
        "TD is even worse than the counter-based algorithm at every sweep"
        " point",
        below("COUNTER", "TD"),
    ),
    Claim(
        "TDOPT, too, is worse than COUNTER at every sweep point - measured:"
        " only at 3 axes (0.0536 vs 0.0491 s); TDOPT is below COUNTER at 2,"
        " 4, 5 and 6 axes (0.0255 vs 0.0352 s at 2; 1.609 vs 5.508 s at 6); "
        + COUNTER_LEFT_BEHIND,
        below("COUNTER", "TDOPT"),
        reproduced=False,
    ),
    ALL_CORRECT,
)
FIG7_CLAIMS = (
    Claim(
        "bottom-up is best for sparse cubes, like the relational case:"
        " BUCOPT < BUC < every other series at every sweep point",
        lowest("BUCOPT", "BUC"),
    ),
    Claim(
        "TDOPTALL (applicable: both properties hold) is close behind: third"
        " everywhere, within 2.5x of BUC",
        all_of(
            lowest("BUCOPT", "BUC", "TDOPTALL"),
            below("TDOPTALL", "BUC", factor=1 / 2.5),
        ),
    ),
    Claim("COUNTER thrashes from 4 axes", thrashes_from(4)),
    ALL_CORRECT,
)
FIG8_CLAIMS = (
    Claim(
        "top-down is best for dense cubes: TDOPTALL is the fastest curve -"
        " measured: BUCOPT is strictly lower at all five sweep points (6.63"
        " vs 6.75 ms at 2 axes to 19.1 vs 54.7 ms at 6) and TDOPTALL is above"
        " plain BUC at 5-6 axes; "
        + PR8_CAUSE
        + "which cut BUCOPT's cost 6.6-9.2x but TDOPTALL's only 2.4-6.0x",
        lowest("TDOPTALL"),
        reproduced=False,
    ),
    Claim(
        "TDOPTALL is far below plain TD (more than 3.5x at every sweep"
        " point) and below COUNTER everywhere",
        all_of(
            below("TDOPTALL", "TD", factor=3.5), below("TDOPTALL", "COUNTER")
        ),
    ),
    Claim(
        "COUNTER stays flat while the dense cube fits memory (one pass and"
        " < 1.4x per added axis through 5 axes), then thrashes at 6 (> 5x"
        " jump)",
        all_of(
            thrashes_from(6),
            lambda s: all(
                s.sim["COUNTER"][k + 1] < 1.4 * s.sim["COUNTER"][k]
                for k in (2, 3, 4)
            ),
            lambda s: s.sim["COUNTER"][6] > 5 * s.sim["COUNTER"][5],
        ),
    ),
    ALL_CORRECT,
)
FIG9_CLAIMS = (
    Claim(
        "BUCOPT and TDOPT buy little despite wrong results: each is below"
        " its safe twin but within 4x of it at every sweep point",
        all_of(
            below("BUCOPT", "BUC"),
            below("BUC", "BUCOPT", factor=1 / 4),
            below("TDOPT", "TD"),
            below("TD", "TDOPT", factor=1 / 4),
        ),
    ),
    Claim(
        "TDOPTALL does very well indeed (and wrong): below every correct"
        " algorithm at every sweep point, more than 8x under TD",
        all_of(
            below("TDOPTALL", "COUNTER"),
            below("TDOPTALL", "BUC"),
            below("TDOPTALL", "TD", factor=8),
        ),
    ),
    Claim(
        "COUNTER is comparable to TDOPTALL at low dimensions (within 2x at"
        " 2-3 axes) - measured: 5.9x apart (0.0395 vs 0.0067 s at 2 axes,"
        " 0.0561 vs 0.0095 s at 3); " + COUNTER_LEFT_BEHIND,
        lambda s: all(
            s.sim["COUNTER"][k] < 2 * s.sim["TDOPTALL"][k] for k in (2, 3)
        ),
        reproduced=False,
    ),
    Claim(
        "COUNTER then suffers the usual exponential meltdown: multi-pass"
        " from 4 axes, the slowest series at 6",
        all_of(
            thrashes_from(4),
            lambda s: s.sim["COUNTER"][6]
            == max(by_axes[6] for by_axes in s.sim.values()),
        ),
    ),
    Claim(
        "--validate flags exactly BUCOPT, TDOPT and TDOPTALL as incorrect,"
        " at every sweep point",
        UNSAFE_WRONG,
    ),
)
FIG10_CLAIMS = (
    Claim(
        "COUNTER wins (dense, 4 dimensions) - measured: COUNTER 0.180 s is"
        " above BUC 0.044, BUCCUST 0.032, BUCOPT 0.029, TDOPT 0.091 and"
        " TDOPTALL 0.073 s; " + COUNTER_LEFT_BEHIND,
        lowest("COUNTER"),
        reproduced=False,
    ),
    Claim(
        "BUCCUST is better than BUC while still correct, which the even"
        " faster BUCOPT is not: BUCOPT < BUCCUST < BUC",
        below("BUCOPT", "BUCCUST", "BUC"),
    ),
    Claim(
        "TDCUST does a little better than TD, but not as well as TDOPT, let"
        " alone TDOPTALL: TDOPTALL < TDOPT < TDCUST < TD",
        below("TDOPTALL", "TDOPT", "TDCUST", "TD"),
    ),
    Claim(
        "the correctness split is as published: BUCOPT, TDOPT and TDOPTALL"
        " are wrong; COUNTER, BUC, BUCCUST, TD and TDCUST match the oracle",
        UNSAFE_WRONG,
    ),
)
FIGD_CLAIMS = (
    Claim(
        "each algorithm's columnar run is more than 2x below its dict run:"
        " BUC partitions by code-range slicing instead of re-bucketing"
        " FactRow lists, TD replaces per-point placement sorts with linear"
        " counting folds over integer group ids",
        all_of(
            below("BUC", "BUC[dict]", factor=2), below("TD", "TD[dict]", factor=2)
        ),
    ),
    ALL_CORRECT,
)

DISJOINT_LINEUP = ("COUNTER", "BUC", "BUCOPT", "TD", "TDOPT")
COVERED_LINEUP = ("COUNTER", "BUC", "BUCOPT", "TD", "TDOPTALL")

FIGURES: Dict[str, FigureSpec] = {
    spec.figure_id: spec
    for spec in (
        FigureSpec(
            figure_id="fig4",
            title="Sparse cubes, 10^4 trees; coverage fails, disjointness holds",
            density="sparse",
            coverage=False,
            disjoint=True,
            algorithms=DISJOINT_LINEUP,
            base_facts=200,
            claims=FIG4_CLAIMS,
        ),
        FigureSpec(
            figure_id="fig5",
            title="Sparse cubes, 10^5 trees; coverage fails, disjointness holds",
            density="sparse",
            coverage=False,
            disjoint=True,
            algorithms=DISJOINT_LINEUP,
            base_facts=800,
            claims=FIG5_CLAIMS,
        ),
        FigureSpec(
            figure_id="fig6",
            title="Dense cubes, 10^5 trees; coverage fails, disjointness holds",
            density="dense",
            coverage=False,
            disjoint=True,
            algorithms=DISJOINT_LINEUP,
            base_facts=800,
            claims=FIG6_CLAIMS,
        ),
        FigureSpec(
            figure_id="fig7",
            title="Sparse cubes, 10^5 trees; coverage and disjointness hold",
            density="sparse",
            coverage=True,
            disjoint=True,
            algorithms=COVERED_LINEUP,
            base_facts=800,
            claims=FIG7_CLAIMS,
        ),
        FigureSpec(
            figure_id="fig8",
            title="Dense cubes, 10^5 trees; coverage and disjointness hold",
            density="dense",
            coverage=True,
            disjoint=True,
            algorithms=COVERED_LINEUP,
            base_facts=800,
            claims=FIG8_CLAIMS,
        ),
        FigureSpec(
            figure_id="fig9",
            title=(
                "Dense cubes, 10^5 trees; neither property holds "
                "(optimized variants timed although incorrect)"
            ),
            density="dense",
            coverage=False,
            disjoint=False,
            algorithms=DISJOINT_LINEUP + ("TDOPTALL",),
            base_facts=800,
            claims=FIG9_CLAIMS,
        ),
        FigureSpec(
            figure_id="fig10",
            title=(
                "DBLP: cube article by /author, /month, /year, /journal"
                " (bar chart, all algorithms)"
            ),
            kind="dblp",
            density="dense",
            coverage=False,
            disjoint=False,
            algorithms=(
                "COUNTER", "BUC", "BUCOPT", "BUCCUST",
                "TD", "TDOPT", "TDOPTALL", "TDCUST",
            ),
            base_facts=2000,
            axes=(4,),
            memory_entries=30_000,
            claims=FIG10_CLAIMS,
        ),
        FigureSpec(
            figure_id="figD",
            title=(
                "BUC/TD kernel duel: dict vs columnar encoding at 10^5"
                " facts (dense, both properties hold)"
            ),
            density="dense",
            coverage=True,
            disjoint=True,
            algorithms=("BUC", "TD"),
            base_facts=100_000,
            axes=(3,),
            memory_entries=50_000,
            encodings=("dict", "auto"),
            claims=FIGD_CLAIMS,
        ),
    )
}


def run_figure(
    figure_id: str,
    scale: float = 1.0,
    axes: Optional[Sequence[int]] = None,
    memory_entries: Optional[int] = None,
    validate: bool = False,
    workers: int = 1,
    engine: str = "auto",
) -> Tuple[FigureSpec, List[AlgorithmRun]]:
    """Run one figure's sweep; returns the spec and all runs.

    ``memory_entries=None`` uses the figure's own budget (Fig. 10 gets a
    pool that fits its dense low-dimensional cube, as the paper's did).
    ``workers``/``engine`` route every run through the parallel engine.
    """
    spec = FIGURES[figure_id]
    if memory_entries is None:
        memory_entries = spec.memory_entries
    runs: List[AlgorithmRun] = []
    configs = spec.configs(scale=scale)
    if axes is not None and spec.kind != "dblp":
        wanted = set(axes)
        configs = [config for config in configs if config.n_axes in wanted]
    variants = [
        {"workers": workers, "engine": engine, "encoding": encoding}
        for encoding in spec.encodings
    ]
    for config in configs:
        runs.extend(
            run_config(
                config, spec.algorithms, memory_entries, validate, variants
            )
        )
    return spec, runs
