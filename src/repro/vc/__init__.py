"""AeroDrome-style vector-clock atomicity checking (third backend).

Mathur & Viswanathan's linear-time algorithm replaces Velodrome's
per-edge graph search with per-transaction vector clocks: a cycle in
the transactional dependence graph manifests as a clock entry that
"sees" a transaction the new edge points back into.  The checker is a
:class:`~repro.velodrome.checker.VelodromeChecker` with that probe as
its whole cycle check, and reports through the shared
:mod:`repro.core.reports` model, so verdicts are directly comparable.
"""

from repro.vc.checker import VcChecker, VcResult, VcStats

__all__ = ["VcChecker", "VcResult", "VcStats"]
