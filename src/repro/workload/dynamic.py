"""Dynamic (multi-session) workload schedules.

The paper's headline experiment (Figure 7) concatenates five sessions with
different lookup/update mixes: read-heavy (10 % updates), balanced (50 %),
write-heavy (90 %), write-inclined (70 %) and read-inclined (30 %).
:class:`DynamicWorkload` chains any sequence of workload specs;
:func:`dynamic_schedule` builds one from ``(session name, lookup fraction)``
pairs: the Figure 7 schedule (:func:`paper_dynamic_workload`, also the
serving experiments' request stream) and the warm-start transfer's two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.workload.spec import Mission, WorkloadSpec
from repro.workload.uniform import UniformWorkload


@dataclass(frozen=True)
class WorkloadPhase:
    """One session of a dynamic schedule: a spec and its mission count."""

    spec: WorkloadSpec
    n_missions: int

    def __post_init__(self) -> None:
        if self.n_missions < 1:
            raise WorkloadError(f"n_missions must be >= 1, got {self.n_missions}")


class DynamicWorkload(WorkloadSpec):
    """Concatenation of workload phases, presented as one mission stream."""

    def __init__(self, phases: Sequence[WorkloadPhase], name: str = "dynamic") -> None:
        if not phases:
            raise WorkloadError("a dynamic workload needs at least one phase")
        self.phases: List[WorkloadPhase] = list(phases)
        self.name = name

    @property
    def total_missions(self) -> int:
        return sum(phase.n_missions for phase in self.phases)

    def phase_boundaries(self) -> List[int]:
        """Mission indices at which a new phase starts (first is 0)."""
        boundaries = [0]
        for phase in self.phases[:-1]:
            boundaries.append(boundaries[-1] + phase.n_missions)
        return boundaries

    def phase_at(self, mission_index: int) -> Tuple[int, WorkloadPhase]:
        """The (phase index, phase) active at ``mission_index``."""
        if mission_index < 0:
            raise WorkloadError(f"mission_index must be >= 0, got {mission_index}")
        cursor = 0
        for i, phase in enumerate(self.phases):
            cursor += phase.n_missions
            if mission_index < cursor:
                return i, phase
        return len(self.phases) - 1, self.phases[-1]

    def expected_lookup_fraction(self, mission_index: int) -> float:
        _, phase = self.phase_at(mission_index)
        return phase.spec.expected_lookup_fraction(mission_index)

    def load_records(self) -> "tuple[object, object]":
        """Bulk-load records of the first phase (all phases are expected to
        share one record space)."""
        first = self.phases[0].spec
        if not hasattr(first, "load_records"):
            raise WorkloadError(
                f"first phase spec {first.name!r} does not provide load_records"
            )
        return first.load_records()  # type: ignore[attr-defined]

    def missions(self, n_missions: int, mission_size: int) -> Iterator[Mission]:
        emitted = 0
        for phase in self.phases:
            if emitted >= n_missions:
                return
            take = min(phase.n_missions, n_missions - emitted)
            yield from phase.spec.missions(take, mission_size)
            emitted += take
        # If more missions are requested than scheduled, keep replaying the
        # final phase (a stable tail keeps long experiments well-defined).
        while emitted < n_missions:
            take = min(self.phases[-1].n_missions, n_missions - emitted)
            yield from self.phases[-1].spec.missions(take, mission_size)
            emitted += take


#: The Figure 7 sessions as ``(session name, lookup fraction)``: update
#: fractions 10/50/90/70/30 %. Each lookup fraction is ``1 - u`` in float
#: (``1 - 0.9`` is not ``0.1``): the value every committed report's
#: missions were drawn against.
PAPER_SESSIONS: List[Tuple[str, float]] = [
    (name, 1.0 - update_fraction)
    for name, update_fraction in (
        ("read-heavy", 0.1),
        ("balanced", 0.5),
        ("write-heavy", 0.9),
        ("write-inclined", 0.7),
        ("read-inclined", 0.3),
    )
]


def dynamic_schedule(
    sessions: Sequence[Tuple[str, float]],
    n_records: int,
    missions_per_session: int,
    seed: int = 0,
    name: str = "dynamic",
) -> DynamicWorkload:
    """One uniform-key phase per ``(session name, lookup fraction)``, all
    over one record space, session ``i`` seeded ``seed + i``."""
    return DynamicWorkload(
        [
            WorkloadPhase(
                UniformWorkload(
                    n_records, lookup_fraction=fraction, seed=seed + i, name=session
                ),
                missions_per_session,
            )
            for i, (session, fraction) in enumerate(sessions)
        ],
        name=name,
    )


def paper_dynamic_workload(
    n_records: int,
    missions_per_session: int,
    seed: int = 0,
) -> DynamicWorkload:
    """The Figure 7 schedule: read-heavy → balanced → write-heavy →
    write-inclined → read-inclined (:data:`PAPER_SESSIONS`)."""
    return dynamic_schedule(
        PAPER_SESSIONS, n_records, missions_per_session, seed, "paper-dynamic"
    )
