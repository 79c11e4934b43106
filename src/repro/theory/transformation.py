"""Appendix G.2, step 2, executed: transforming a feasible single-switch
schedule into the LSTF schedule by slack-ordered swaps.

The paper's proof that LSTF replays ≤ 2 congestion points hinges on a
single-switch lemma: *any* feasible schedule (no bit sees negative slack)
can be transformed into the LSTF schedule by repeatedly swapping a pair of
scheduled bits that violate least-slack order — and every intermediate
schedule stays feasible, so the LSTF schedule itself is feasible.

This module renders that argument executable at bit granularity on a
discrete-time single switch:

* a **job** is a packet at the switch: arrival slot, length in bits
  (one bit per slot), and a last-bit deadline ``arrival + slack + length``;
* a **schedule** is the slot-by-slot assignment of the transmitter;
* the **swap step** finds slots ``t1 < t2`` whose bits violate the
  least-remaining-slack order (the later-scheduled bit has the earlier
  deadline and had already arrived at ``t1``) and exchanges them;
* :func:`transform_to_lstf` iterates the step to a fixed point, checking
  feasibility after every swap, and verifies the fixed point equals the
  directly simulated (preemptive, bit-level) LSTF schedule.

``tests/theory/test_transformation.py`` uses this to check the lemma on
randomized feasible instances — a mechanical confirmation of the paper's
central replay argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

__all__ = [
    "BitJob",
    "is_feasible",
    "simulate_bit_lstf",
    "simulate_priority_schedule",
    "transform_to_lstf",
]


class TransformationError(ReproError):
    """The swap argument's invariant failed (would disprove the lemma)."""


@dataclass(frozen=True, slots=True)
class BitJob:
    """A packet at a single switch, in discrete bit-slots.

    ``deadline`` is the slot by which the last bit must have been served
    (exclusive): serving the final bit in slot ``deadline - 1`` is on
    time.  ``deadline = arrival + slack + length``.
    """

    pid: int
    arrival: int
    length: int
    deadline: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"job {self.pid}: length must be >= 1")
        if self.deadline < self.arrival + self.length:
            raise ValueError(
                f"job {self.pid}: deadline {self.deadline} precedes earliest "
                f"possible completion {self.arrival + self.length}"
            )


Schedule = list[int | None]  # slot -> pid (None = idle)


def _completions(schedule: Schedule) -> dict[int, int]:
    done: dict[int, int] = {}
    for slot, pid in enumerate(schedule):
        if pid is not None:
            done[pid] = slot + 1  # completion is exclusive
    return done


def is_feasible(schedule: Schedule, jobs: dict[int, BitJob]) -> bool:
    """Every job fully served, after arrival, by its deadline."""
    served: dict[int, int] = {}
    for slot, pid in enumerate(schedule):
        if pid is None:
            continue
        job = jobs[pid]
        if slot < job.arrival:
            return False
        served[pid] = served.get(pid, 0) + 1
    for pid, job in jobs.items():
        if served.get(pid, 0) != job.length:
            return False
    for pid, completion in _completions(schedule).items():
        if completion > jobs[pid].deadline:
            return False
    return True


def _simulate(jobs: dict[int, BitJob], key) -> Schedule:
    """Work-conserving bit-level simulation serving min ``key(job)`` first."""
    remaining = {pid: job.length for pid, job in jobs.items()}
    horizon = max(j.deadline for j in jobs.values()) + sum(
        j.length for j in jobs.values()
    )
    schedule: Schedule = []
    slot = 0
    while any(remaining.values()):
        if slot > horizon:
            raise TransformationError("simulation failed to drain (bug)")
        available = [
            jobs[pid]
            for pid, bits in remaining.items()
            if bits > 0 and jobs[pid].arrival <= slot
        ]
        if not available:
            schedule.append(None)
            slot += 1
            continue
        chosen = min(available, key=key)
        remaining[chosen.pid] -= 1
        schedule.append(chosen.pid)
        slot += 1
    return schedule


def simulate_priority_schedule(jobs: dict[int, BitJob], priority: dict[int, float]) -> Schedule:
    """The proof's step-1 construction: bit priorities, FIFO tie-break."""
    return _simulate(jobs, key=lambda j: (priority[j.pid], j.pid))


def simulate_bit_lstf(jobs: dict[int, BitJob]) -> Schedule:
    """Preemptive bit-level LSTF: least last-bit slack == earliest deadline."""
    return _simulate(jobs, key=lambda j: (j.deadline, j.pid))


def _find_violation(schedule: Schedule, jobs: dict[int, BitJob]) -> tuple[int, int] | None:
    """A pair of slots (t1 < t2) violating least-slack order.

    Matching the proof's conditions: the bit at t2 has strictly smaller
    remaining slack at time t1 (i.e. an earlier deadline — the difference
    of two remaining slacks is time-independent), it had already arrived
    by t1, and t1's bit exists.  FIFO tie-breaking means equal deadlines
    are resolved by pid, mirroring the pseudocode's final shuffle.
    """
    for t1, p1 in enumerate(schedule):
        if p1 is None:
            continue
        j1 = jobs[p1]
        for t2 in range(t1 + 1, len(schedule)):
            p2 = schedule[t2]
            if p2 is None or p2 == p1:
                continue
            j2 = jobs[p2]
            if j2.arrival <= t1 and (j2.deadline, j2.pid) < (j1.deadline, j1.pid):
                return t1, t2
    return None


def transform_to_lstf(
    schedule: Schedule,
    jobs: dict[int, BitJob],
    max_swaps: int | None = None,
) -> tuple[Schedule, int]:
    """Run the Appendix G.2 swap loop to its fixed point.

    Returns ``(lstf_schedule, num_swaps)``.  Raises
    :class:`TransformationError` if any intermediate schedule loses
    feasibility — which the lemma proves cannot happen, so a raise here
    would indicate a bug (or a counter-example to the paper).
    """
    if not is_feasible(schedule, jobs):
        raise TransformationError("initial schedule is not feasible")
    work = list(schedule)
    limit = max_swaps if max_swaps is not None else len(work) ** 2 + len(work)
    swaps = 0
    while True:
        found = _find_violation(work, jobs)
        if found is None:
            break
        t1, t2 = found
        work[t1], work[t2] = work[t2], work[t1]
        swaps += 1
        if not is_feasible(work, jobs):
            raise TransformationError(
                f"swap #{swaps} at slots ({t1}, {t2}) broke feasibility — "
                "this would contradict Appendix G.2"
            )
        if swaps > limit:
            raise TransformationError("swap loop exceeded its bound (bug)")
    # Normalise bit order within a packet (the pseudocode's line 10): our
    # bits are interchangeable, so the schedule is already canonical up to
    # same-deadline ordering, which FIFO/pid tie-breaking fixed above.
    return work, swaps
