"""Dynamic-analysis oracles.

Library-grade reference implementations used to validate the
production analyses (and usable on their own): a vector-clock
implementation and a happens-before tracker that derives its ordering
*only* from Octet state transitions — the mechanism's soundness
theorem ("Octet's state transitions establish happens-before edges
that transitively imply all cross-thread dependences", Section 3.2.1)
as executable, checkable code.  :mod:`repro.oracle.serializability`
adds the whole-trace oracle the single-run properties referee ICD,
PCD, Velodrome and vc against.
"""

from repro.oracle.vector_clock import VectorClock
from repro.oracle.happens_before import HappensBeforeTracker, OrderingViolation

__all__ = ["HappensBeforeTracker", "OrderingViolation", "VectorClock"]
