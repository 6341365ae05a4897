"""The executor seam: pluggable strategies for bug-free reference execution.

The row executor is the planner-driven interpreter the repo has always had:
per-row dicts walked by the physical operator tree.  The columnar executor
(:mod:`repro.engine.columnar`) evaluates the same logical plan over column
vectors instead, an order of magnitude less per-row Python overhead on the
differential hot path.  Both are registered here by name — mirroring the
backend registry (:mod:`repro.backends`) — so campaigns select the reference
execution strategy with a string (``--executor columnar``) and tests
differential-test the two implementations against each other.

The seam only covers *bug-free* execution: :meth:`repro.engine.engine.Engine.execute`
delegates to its executor exclusively when no hints are requested and the
engine's hooks are the exact bug-free :class:`~repro.plan.physical.ExecutionHooks`.
Dialect engines (seeded fault profiles) and hinted executions always take the
row path, whose fault seams are the whole point of the simulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List

from repro.engine.resultset import ResultSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.engine import Engine
    from repro.plan.logical import QuerySpec


class ExecutorBackend:
    """One reference-execution strategy.

    Implementations must be *exact*: for any generated query, the returned
    :class:`~repro.engine.resultset.ResultSet` is bit-identical to the row
    executor's (same column names, same row tuples, same value types) — the
    property tests in ``tests/test_columnar.py`` pin that contract down.
    """

    name = "abstract"

    def execute(self, engine: "Engine", query: "QuerySpec") -> ResultSet:
        """Execute *query* against *engine*'s database, bug-free."""
        raise NotImplementedError


class RowExecutor(ExecutorBackend):
    """The classic planner-driven row-dict interpreter (the historical path)."""

    name = "row"

    def execute(self, engine: "Engine", query: "QuerySpec") -> ResultSet:
        return engine.execute_with_report(query).result


_EXECUTOR_FACTORIES: Dict[str, Callable[[], ExecutorBackend]] = {}

#: The reference strategy campaigns and differential testers use unless told
#: otherwise; "row" stays selectable by name.
DEFAULT_REFERENCE_EXECUTOR = "columnar"


def register_executor(name: str,
                      factory: Callable[[], ExecutorBackend]) -> None:
    """Register an executor strategy under *name* (overwrites silently)."""
    _EXECUTOR_FACTORIES[name] = factory


def registered_executors() -> List[str]:
    """Sorted names of all registered executor strategies."""
    return sorted(_EXECUTOR_FACTORIES)


def executor_from_name(name: str) -> ExecutorBackend:
    """Instantiate an executor strategy by registry name."""
    try:
        factory = _EXECUTOR_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown executor {name!r}; available: {registered_executors()}"
        ) from None
    return factory()


# Imported last, once ExecutorBackend exists for columnar.py to subclass.
# Eager on purpose: the columnar executor is the default reference, and a
# forked pool worker must not pay for this import inside its setup.
from repro.engine.columnar import ColumnarExecutor  # noqa: E402

register_executor("row", RowExecutor)
register_executor("columnar", ColumnarExecutor)
