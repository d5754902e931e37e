"""Phase one of the three-phase algorithm (Section 5.2).

For each QI-group, repeatedly remove one tuple from a pillar (a most frequent
sensitive value) until the group is l-eligible.  The paper observes that the
end result is independent of tie-breaking: a group only becomes eligible once
every pillar has lost a tuple, so the multiset of removals is unique.  We
nevertheless break ties deterministically (smallest sensitive code) so that
row-level output is reproducible.

If, at the end of the phase, the residue set ``R`` is itself l-eligible, the
whole algorithm stops and the solution is optimal (Corollary 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.state import AlgorithmState

__all__ = ["PhaseOneReport", "run_phase_one"]


@dataclass(frozen=True)
class PhaseOneReport:
    """Outcome of phase one."""

    #: Number of tuples moved to the residue set during this phase.
    moved: int
    #: ``h(R.)``: pillar height of the residue at the end of phase one.  This
    #: value drives the lower bound ``OPT >= l * h(R.)`` of Corollary 2.
    residue_height: int
    #: ``|R.|``: size of the residue at the end of phase one.
    residue_size: int
    #: Whether inequality (1) ``|R| >= l * h(R)`` already holds, i.e. the
    #: algorithm terminates here with an optimal solution.
    satisfied: bool


def run_phase_one(state: AlgorithmState) -> PhaseOneReport:
    """Make every QI-group l-eligible by shaving its pillars.

    On the lazy state every ineligible group is shaved in one array pass
    over the run encoding
    (:meth:`~repro.core.state.AlgorithmState.shave_ineligible_groups`): the
    paper's observation that the removal multiset is tie-break-independent
    gives each group's stopping height in closed form, and the residue is
    one masked gather of the sort order.  Eager states (the reference
    backend, the Section 5.5 :class:`~repro.core.groups.NaiveGroupState`
    ablation, custom state factories) and states mutated before the phase
    run the one-removal-at-a-time loop the array pass is proven against.
    """
    moved = state.shave_ineligible_groups()
    if moved is None:
        l = state.l
        moved = 0
        for group_id in state.ineligible_group_ids():
            group = state.group(group_id)
            while not group.is_l_eligible(l):
                pillar = min(group.pillars_view())
                state.move_to_residue(group_id, pillar)
                moved += 1
    return PhaseOneReport(
        moved=moved,
        residue_height=state.residue.height,
        residue_size=state.residue.size,
        satisfied=state.residue_is_eligible(),
    )
