"""The engine applies whatever a policy decides and keeps its invariants.

The bundled policies name queued jobs once each, in rank order.
:class:`Adversary` does not: each decision it returns is drawn from the
context with hypothesis.  It may start jobs out of rank order, name an
id twice, name ids that are running, that are not queued or that are
not in the trace, preempt running and non-running ids, and start a
victim it preempts in the same decision.  Its ``greedy`` rows are
queued rows in any order, repeated, rows of running jobs (victims of
the same decision among them), or the context's own queue, which the
engine must read before its preemptions re-queue their victims.
The replays run over :func:`~test_reference_policies.replays`' random
traces and faults, wrapped in
:class:`~test_reference_policies.OrderChecked`, so every context must
still be in both orders, conserve GPUs and show no job as both queued
and running.  After each run:

* work is conserved;
* ``sched.starts`` equals the number of segments;
* ``sched.backfills`` equals the count the adversary recomputes from
  its own contexts: an applied start is a backfill when a job ranked
  before it is still queued and was not started earlier in the same
  decision.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import get_obs
from repro.sched import Fleet, PendingJob, SchedulingDecision, run_schedule

from reference_policies import ReferenceFifo
from test_reference_policies import (
    OrderChecked,
    assert_work_conserved,
    replays,
)

#: Decisions an adversary draws per replay.  After them it plans FIFO
#: (the reference, which plans on a clone and names its starts), so
#: that every replay settles.
BUDGET = 12

#: Ids no trace from ``replays()`` holds.
STRANGERS = [-1, 1000]

COUNTERS = ("sched.starts", "sched.backfills")


def applied_backfills(context, decision) -> int:
    """The backfills the engine counts when it applies ``decision``,
    found by applying the decision to a clone of the context's fleet:
    victims release their GPUs and re-queue, then each start that is
    queued, not started yet and fits is placed, then each greedy row
    the same way, up to the first queued, unstarted row that does not
    fit.  The greedy rows are read here, before the engine applies the
    decision, so a ``greedy`` that is the context's queue holds no
    victim of the same decision."""
    trial = context.fleet.clone()
    running = {entry.job_id: entry for entry in context.running}
    queued = {pending.job_id: pending.job for pending in context.queue}
    named = [(job_id, False) for job_id in decision.starts]
    named += [(row.job_id, True) for row in decision.greedy]
    for job_id in decision.preemptions:
        entry = running.pop(job_id, None)
        if entry is not None:
            trial.release(entry.placement)
            queued[job_id] = entry.job
    started = set()
    backfills = 0
    for job_id, greedy in named:
        job = queued.get(job_id)
        if job is None or job_id in started:
            continue
        if trial.try_place(job.workload_type, job.num_cnodes) is None:
            if greedy:
                break  # the greedy order is blocked here
            continue
        # Rank order is (arrival hour, job id) order, and a re-queued
        # job keeps its first arrival hour.
        rank = (job.submit_day, job_id)
        backfills += any(
            (other.submit_day, other_id) < rank
            for other_id, other in queued.items()
            if other_id not in started
        )
        started.add(job_id)
    return backfills


class Adversary:
    """Draws decisions from each context and counts their backfills."""

    name = "adversary"

    def __init__(self, data) -> None:
        self.data = data
        self.budget = BUDGET
        self.backfills = 0

    def select(self, context):
        # FIFO's plan ends every decision's starts: a queued job that
        # fits an idle fleet always starts, so no replay is left stuck.
        plan = ReferenceFifo().select(context).starts
        if self.budget and self.data.draw(st.booleans(), label="adversarial"):
            self.budget -= 1
            queued = [pending.job_id for pending in context.queue]
            # Running ids include the victims this decision preempts.
            running = [entry.job_id for entry in context.running]
            named = st.sampled_from(queued + running + STRANGERS)
            preemptions = self.data.draw(
                st.lists(named, max_size=3), label="preemptions"
            )
            starts = self.data.draw(
                st.lists(named, max_size=6), label="starts"
            )
            rows = list(context.queue) + [
                PendingJob(entry.job, entry.start_hour, 1.0)
                for entry in context.running
            ]
            greedy = self.data.draw(
                st.lists(st.sampled_from(rows), max_size=6)
                | st.just(context.queue),
                label="greedy",
            )
            decision = SchedulingDecision(
                starts=tuple(starts) + plan,
                preemptions=tuple(preemptions),
                greedy=greedy,
            )
        else:
            decision = SchedulingDecision(starts=plan)
        self.backfills += applied_backfills(context, decision)
        return decision


@settings(max_examples=150, deadline=None)
@given(case=replays(), data=st.data())
def test_adversarial_decisions_keep_the_engine_invariants(case, data):
    jobs, durations, num_servers, faults = case
    adversary = Adversary(data)
    registry = get_obs().metrics
    before = {name: registry.counter(name).value for name in COUNTERS}
    outcome = run_schedule(
        jobs,
        Fleet(num_servers),
        OrderChecked(adversary),
        durations=durations,
        faults=faults,
    )
    added = {
        name: registry.counter(name).value - before[name] for name in COUNTERS
    }
    assert len(outcome.outcomes) + len(outcome.rejected) == len(jobs)
    assert_work_conserved(outcome)
    segments = sum(len(job.segments) for job in outcome.outcomes)
    assert added["sched.starts"] == segments
    assert added["sched.backfills"] == adversary.backfills
