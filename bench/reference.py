"""A fixed reference loop that measures how fast the CPU runs right now.

On a shared host the speed of one vCPU swings by up to 2x from second to
second (another tenant on its hyperthread sibling), so the CPU time of an op
says as much about the neighbours as about the program.  The runner pins itself
and every child to one CPU and, while a child runs, wakes every
`SAMPLE_INTERVAL_S` to time one `unit()` of this loop on that CPU.  The mean
CPU time of those units is the host's speed over the child's lifetime, sampled
under the same conditions the child saw; the child's CPU time divided by it
depends far less on the neighbours.

The loop is the benchmark's own code and never changes with the program: 20
shift-adds on a 20000-bit integer, the kind of work the packed series of
`cluster` does.  Of the loops tried (this one, a min-plus relaxation over a
small and over a 13121-state automaton, as in `automaton.degree_profile`),
its speed tracked the speed of every workload's ops most closely, and the
min-plus loops' did not track even the `table` ops better.
"""

from __future__ import annotations

import time

SAMPLE_INTERVAL_S = 0.010
# About one unit's CPU time on the 2-vCPU x86 VM the benchmark was written on,
# when its neighbours were quiet, so that normalised CPU times read close to
# seconds there.  Only ratios between runs on one machine are meaningful.
NOMINAL_UNIT_S = 60e-6

_BIG = (1 << 20000) - 12345


def unit() -> float:
    """CPU seconds this thread spent on one unit of the reference loop."""
    start = time.thread_time_ns()
    x = _BIG
    for _ in range(20):
        x = (x << 3) + x + (x >> 5)
    return (time.thread_time_ns() - start) / 1e9
