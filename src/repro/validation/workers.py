"""The verify worker pool: modelled parallel signature-verification lanes.

Real Fabric validates a block's endorsement signatures on a pool of
worker goroutines; the legacy cost model *assumed* that pool by dividing
the per-transaction verification cost by
``CostModel.validation_parallelism``. The pool here models it instead:
each lane is a :class:`~repro.sim.resources.Resource` of capacity one, a
task occupies its lane for the full (undivided) verification cost, and
all lanes multiplex onto the peer's CPU cores — so queueing, core
contention, and diminishing returns past saturation emerge from the
simulation rather than from a constant.

Dispatch is deterministic: a task goes to the lane with the fewest
outstanding tasks, ties broken by the lowest lane index. Determinism
matters more than realism here — the whole test suite's bit-identity
discipline relies on identical event schedules for identical seeds.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.trace.tracer import Tracer

#: The peer CPU's scheduling band for validation work, ahead of the
#: endorsement band (``_ENDORSE_PRIORITY`` in :mod:`repro.fabric.peer`)
#: so that an endorsement flood cannot starve block validation. The one
#: definition: the peer, the block validator and the schedule policies
#: all import it from here.
VALIDATE_PRIORITY = 0


class VerifyWorkerPool:
    """``num_workers`` verification lanes multiplexed onto a peer's CPU."""

    def __init__(
        self,
        env: Environment,
        cpu: Resource,
        num_workers: int,
        priority: int = VALIDATE_PRIORITY,
        owner: str = "peer",
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.env = env
        self.cpu = cpu
        self.priority = priority
        self.owner = owner
        self.tracer = tracer
        self.lanes = [Resource(env, 1) for _ in range(num_workers)]
        self._outstanding = [0] * num_workers
        self._sequence = 0
        #: Tasks that have started executing (accounting).
        self.tasks = 0
        #: Total seconds tasks spent queued (submit -> execution start).
        self.queue_delay_total = 0.0

    @property
    def num_workers(self) -> int:
        """Number of lanes in the pool."""
        return len(self.lanes)

    def lane_busy_times(self) -> List[float]:
        """Per-lane busy seconds so far (the utilisation numerator)."""
        return [lane.busy_time() for lane in self.lanes]

    def submit(self, duration: float, label: Optional[str] = None) -> Event:
        """Schedule ``duration`` seconds of verification work on a lane.

        Returns an event that fires when the task completes. The lane is
        chosen deterministically (least outstanding tasks, lowest index
        on ties) at submission time, modelling a static work-stealing-free
        dispatcher.
        """
        lane_index = min(
            range(len(self.lanes)),
            key=lambda index: (self._outstanding[index], index),
        )
        self._outstanding[lane_index] += 1
        self._sequence += 1
        done = self.env.event()
        self.env.process(
            self._run(lane_index, duration, done, self.env.now, label),
            name=f"{self.owner}/verify-lane{lane_index}/task{self._sequence}",
        )
        return done

    def _run(
        self,
        lane_index: int,
        duration: float,
        done: Event,
        submitted_at: float,
        label: Optional[str],
    ):
        lane = self.lanes[lane_index]
        yield lane.request()
        try:
            # A lane is a logical validator thread: it still needs one of
            # the peer's CPU cores to make progress, in the validation
            # priority band so endorsement floods cannot starve it.
            yield self.cpu.request(self.priority)
            try:
                started_at = self.env.now
                self.queue_delay_total += started_at - submitted_at
                self.tasks += 1
                yield duration  # bare-delay sleep
                if self.tracer is not None:
                    self.tracer.span(
                        "verify.task",
                        cat="validate",
                        track=f"{self.owner}/lane{lane_index}",
                        start=started_at,
                        tx_id=label,
                    )
            finally:
                self.cpu.release()
        finally:
            lane.release()
            self._outstanding[lane_index] -= 1
        done.succeed()
