"""Cross-backend differential suites, and the run cache they share."""

from functools import lru_cache

from repro.transport.decisions import canonical_decisions
from repro.transport.scenarios import run_asyncio, run_scc


@lru_cache(maxsize=None)
def cached_decisions(
    backend: str, name: str, seed: int, with_plan: bool = True
) -> tuple[str, str, tuple, int, int]:
    """Memoised (decision text, digest, outcomes, n_injected,
    n_recoveries) -- several test modules replay the same runs."""
    run = {"scc": run_scc, "asyncio": run_asyncio}[backend]
    res = run(name, seed, with_plan=with_plan)
    injected = 0 if res.faults is None else res.faults.n_injected
    recovered = 0 if res.faults is None else len(res.faults.recoveries)
    return (
        canonical_decisions(res.records), res.digest, res.outcomes,
        injected, recovered,
    )
