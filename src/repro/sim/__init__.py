"""Asynchronous message-passing simulator.

This package implements the system model of Section 2 of the paper:

* processes (clients and servers) are deterministic state machines whose
  state includes one *income* and one *outcome* buffer per incident link;
* a **computation step** lets a process read all messages residing in its
  income buffers, perform local computation, and send at most one message
  to each of its neighbours;
* a **delivery event** removes one message from the outcome buffer of the
  source and places it in the income buffer of the destination;
* links do not lose, modify, inject or duplicate messages;
* the order of events is controlled by an adversary (a
  :class:`~repro.sim.scheduler.Scheduler` or an explicit command script).

The simulator is deterministic: an execution is a pure function of the
initial configuration and the sequence of :mod:`~repro.sim.replay`
commands applied to it, which is what makes the paper's
indistinguishability splices executable (see :mod:`repro.core.splicing`).
"""

from repro.sim.messages import Message, Payload
from repro.sim.process import Process, StepContext
from repro.sim.network import Network
from repro.sim.executor import (
    SNAPSHOT_MODES,
    Simulation,
    Configuration,
    DeepCopyConfiguration,
    SimCounters,
    use_snapshot_mode,
)
from repro.sim.replay import Command, StepCmd, DeliverCmd, InvokeCmd, ReplayError
from repro.sim.scheduler import (
    Scheduler,
    RoundRobinScheduler,
    RandomScheduler,
    run_until_quiescent,
)
from repro.sim.trace import Trace, StepEvent, DeliverEvent, InvokeEvent
from repro.sim.clock import (
    LamportClock,
    VectorClock,
    HybridLogicalClock,
    HLCTimestamp,
    TrueTimeOracle,
    TTInterval,
)

__all__ = [
    "Message",
    "Payload",
    "Process",
    "StepContext",
    "Network",
    "SNAPSHOT_MODES",
    "Simulation",
    "Configuration",
    "DeepCopyConfiguration",
    "SimCounters",
    "use_snapshot_mode",
    "Command",
    "StepCmd",
    "DeliverCmd",
    "InvokeCmd",
    "ReplayError",
    "Scheduler",
    "RoundRobinScheduler",
    "RandomScheduler",
    "run_until_quiescent",
    "Trace",
    "StepEvent",
    "DeliverEvent",
    "InvokeEvent",
    "LamportClock",
    "VectorClock",
    "HybridLogicalClock",
    "HLCTimestamp",
    "TrueTimeOracle",
    "TTInterval",
]
