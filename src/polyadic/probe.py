"""Exhaustive finite-horizon search for depth-i coding conflicts.

A depth-i pair is two points on distinct orbits whose i-codings (the sequence
of first-i-edge symbols along the orbit) agree everywhere while their
(i+1)-codings differ.  At a finite horizon L we can only approximate this:
every pair of level-L paths sharing their first i edges is simulated forward
with the successor and backward with the predecessor, simultaneously on both
paths, within their terminal vertices' towers.

The first simulated time whose i-symbols differ kills the pair: no infinite
extensions of these two paths can form a depth-i pair, which is the evidence
the search accumulates.  A pair that is not killed survives, censored: the
horizon ran out before the pair was resolved.  Every survivor is censored
both ways, since it survives only when its whole diagonal has equal
i-symbols.  Survivors whose (i+1)-symbols differ somewhere on that diagonal
are reported as genuine conflicts - they look exactly like depth-i pairs as
far as this horizon can see.

The survivor counts are not evidence about depth-i pairs.  At Pascal i=1
source-lex, L = 6..13, every level-L path lies in some surviving pair, and
the paths in genuine conflicts hold about half the mass at every L.  So
`genuine_conflicts` counts are artifacts of the tower boundaries at the
horizon: evidence neither for nor against the paper's claim that such
pairs are exceptional.  The exceptional-mass report planned as item 1 of
ROADMAP.md is what measures that claim.

The simulation never builds paths.  A path's first k edges are named by
their place on level k, where the level's paths lie vertex by vertex in
canonical order, each tower in rank order.  A tower is its sources' towers
in label order, so one bottom-up pass over the ordering's level tables maps
each place to its prefix's place one level down; a path's k-symbol is its
place on the horizon carried down to level k, and only the i- and
(i+1)-symbols are formed for every path.  A pair is
rank p of one tower against rank p + s of another, and each (towers, s) is
a diagonal; a pair's window is the run of equal i-symbols around it on its
diagonal, so a pair survives exactly when its whole diagonal has equal
i-symbols.  The kernel decides that with one test per diagonal, not one
step per pair: the towers' i-symbols are laid on one axis, forward and then
reversed, each tower followed by a sentinel of its own, and prefix doubling
(Karp, Miller & Rosenberg; Manber & Myers) ranks every window of length
2^j.  A diagonal survives iff the two power-of-two windows that cover its
overlap, one from each end, rank the same in both towers; its pairs are
then survivors, with its (i+1)-symbol mismatches shifted to each pair as
conflict times.  `max_killed_window`, the longest run that is not a whole
diagonal, ends at a real mismatch (two symbols, not a sentinel) forward or
backward.  The longest extension that does so lies between two neighbours
in the suffix order of the forward half or of the reversed half, each
ordered on its own, and binary lifting over the same ranks measures it.
The cost follows the diagonals and the axis length, not the c^{2L} pairs.
The test suite keeps the pair scan the kernel replaced and replays pairs
with the raw successor machine to pin the equivalence.

Survivors are kept as columns, as the run expansion leaves them: x and x'
as columns, the survivors' paths in axis order, divergence level, and
conflict times as one flat array with cuts, beside each column's tower,
rank and min-coordinate trace.  One descent over the columns' places alone
reads their traces and where each pair's prefixes part.
A survivor's window, its whole diagonal, follows from its two (rank,
terminal) references, so no row repeats it.  `_conflict_rows` writes
selected survivors as the JSON rows of the CLI document, in bulk and at
the depth where they land, so the document embeds them without another
copy.  The report's survivor views are those rows, written at top level
and read back, parsed once per report and selected by mask, so a
survivor has one writer and one reader.  A report
past a fixed cap of survivors or of conflict times is refused with
`ReportTooLarge` before it is allocated.

All of the numpy code above, the kernel and the columns, lives in
`polyadic._diagonals`.  `probe_depth_pairs` imports it in its body, so
numpy loads with the first probe and not with `import polyadic`.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import TYPE_CHECKING

from .export import Encoded
from .vershik import DEFAULT_TOWER_BUDGET, Ordering

if TYPE_CHECKING:
    from ._diagonals import _Columns


class ProbeReport:
    """Outcome counts plus every surviving pair, for one (i, L, floor) run.

    Survivors stay in the kernel's columns.  `to_document` hands the
    emitter a writer of the conflict list, which writes it straight from
    them at the depth it lands; the survivor views select from one parse of
    every survivor's row, made when a view first selects a row.  Not a
    named tuple like the package's other values: two reports compare by
    identity, as tuple equality would compare the columns' arrays.
    """

    def __init__(
        self, i: int, horizon: int, floor: int, budget: int, candidates: int,
        skipped_towers: int, max_killed_window: int, _columns: _Columns,
    ) -> None:
        self.i = i
        self.horizon = horizon
        self.floor = floor
        self.budget = budget
        self.candidates = candidates
        self.skipped_towers = skipped_towers
        self.max_killed_window = max_killed_window
        self._columns = _columns

    @property
    def censored(self) -> int:  # every survivor is censored; see the module docstring
        return len(self._columns.x)

    @property
    def coding_killed(self) -> int:
        return self.candidates - self.censored

    @cached_property
    def _all_rows(self) -> list[dict]:
        return json.loads(self._columns.write_rows(self._columns.every_row(), "\n"))

    def _rows(self, selected) -> list[dict]:  # selected: a boolean mask over survivors
        if not selected.any():
            return []
        rows = self._all_rows
        return [rows[k] for k in selected.nonzero()[0].tolist()]

    @property
    def survivors(self) -> list[dict]:
        """Every surviving pair's row, in enumeration order."""
        return self._rows(self._columns.every_row())

    @property
    def genuine_conflicts(self) -> list[dict]:
        return self._rows(self._columns.genuine())

    @property
    def same_terminal_survivors(self) -> list[dict]:
        return self._rows(self._columns.same_terminal())

    def to_document(self) -> dict:
        """The report as the CLI writes it, its conflict list written from the columns."""
        c = self._columns
        genuine = c.genuine()
        return {
            "i": self.i,
            "L": self.horizon,
            "floor": self.floor,
            "budget": self.budget,
            "candidates": self.candidates,
            "coding_killed": self.coding_killed,
            "censored": self.censored,
            "skipped_towers": self.skipped_towers,
            "max_killed_window": self.max_killed_window,
            "genuine_conflicts": Encoded(lambda nl: c.write_rows(genuine, nl)),
            "uncensored_genuine_conflicts": [],  # always empty; perfbench's probe check reads it
            "survivors_without_conflict": len(genuine) - int(genuine.sum()),
            "same_terminal_survivors": int(c.same_terminal().sum()),
        }


def probe_depth_pairs(
    ordering: Ordering,
    i: int,
    horizon: int,
    min_coord_floor: int = 0,
    budget: int = DEFAULT_TOWER_BUDGET,
) -> ProbeReport:
    """Simulate every admissible pair of level-`horizon` paths sharing i edges.

    Pairs are enumerated over terminal vertices whose minimum coordinate is
    at least `min_coord_floor` (a finite stand-in for restricting to dense
    orbits) and whose towers fit the `budget`; oversized towers are counted
    as skipped, not errors.  A floor above floor(L * d / q), the largest
    minimum coordinate at level L, admits no vertex and raises ValueError.
    See the module docstring for kill and censor semantics.  Raises
    `ReportTooLarge` when the survivors or their conflict times would pass
    the kernel's cap.
    """
    if i < 0 or horizon < 1:
        raise ValueError("need i >= 0 and horizon >= 1")
    diagram = ordering.diagram
    top = horizon * diagram.degree // diagram.arity
    if min_coord_floor > top:
        raise ValueError(
            f"floor {min_coord_floor} admits no level-{horizon} vertex: the largest "
            f"minimum coordinate there is floor(L*d/q) = {top}"
        )
    from ._diagonals import _search  # numpy loads here, with the first probe

    admitted, skipped = [], 0
    for v, dim in zip(diagram.vertices(horizon), diagram._row(horizon)):
        if dim > budget:
            skipped += 1
        elif v.min_coord >= min_coord_floor:
            admitted.append(v)
    candidates, max_killed_window, survivors = _search(ordering, i, horizon, admitted, budget)
    return ProbeReport(
        i=i,
        horizon=horizon,
        floor=min_coord_floor,
        budget=budget,
        candidates=candidates,
        skipped_towers=skipped,
        max_killed_window=max_killed_window,
        _columns=survivors,
    )
