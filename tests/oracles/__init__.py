"""Test oracles: the seed solvers and checks the tests compare against.

None of this is a user path, so none of it ships in ``repro``:

* :mod:`.reference` — the frozen seed solvers (Gen, Independent, Spec)
  and kernels that the equivalence and differential tests pin the
  package's solvers to, bit for bit;
* :mod:`.submodular` — set-function checkers for Propositions 1-2;
* :mod:`.latency` — the dense ``(M, K, I)`` latency tensor and the
  ``latency <= deadline`` feasibility build the CSR build is checked
  against;
* :mod:`.request_sim` — the request-level Monte Carlo whose empirical
  hit ratio converges to ``U(X)`` (eq. 2);
* :mod:`.capacity` — the capacity check of a finished placement.

:data:`ORACLE_SOLVERS` registers the three seed solvers, so a plan can
run them through :func:`repro.api.run_plan` or
:func:`repro.exec.execute_plan`. The package imports only numpy and
``repro``; ``benchmarks/bench_perf.py`` imports it as ``tests.oracles``
(the repo root on ``sys.path``) for the seed side of its Gen and sweep
gates.
"""

from repro.api import SolverRegistry

from .reference import (
    ReferenceGenConfig,
    ReferenceIndependentConfig,
    ReferenceSpecConfig,
)

#: The seed solvers, registered as plan solvers.
ORACLE_SOLVERS = SolverRegistry()

ORACLE_SOLVERS.register(
    "reference-gen",
    ReferenceGenConfig,
    summary="Seed TrimCaching Gen (bit-pinned reference loops)",
)
ORACLE_SOLVERS.register(
    "reference-independent",
    ReferenceIndependentConfig,
    summary="Seed Independent Caching (bit-pinned reference loops)",
)
ORACLE_SOLVERS.register(
    "reference-spec",
    ReferenceSpecConfig,
    summary="Seed TrimCaching Spec (bit-pinned reference loops)",
)
