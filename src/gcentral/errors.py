"""Exception types shared across the package, and the memory limit.

Each class carries the CLI exit code of its errors as ``exit_code``: input
problems exit 2, enumeration budget and memory overruns exit 3, numerical
failures exit 4.
"""

from __future__ import annotations

#: Bytes one process may allocate for the arrays of a graph, a search and its
#: tie list, a Monte Carlo run, a dense walk solve or a path-count block.
MEMORY_LIMIT = 1 << 30

#: Source-slot visits (outside vertices times CSR slots) one group
#: betweenness score may make: about a minute of path counting.
PATH_COUNT_LIMIT = 600_000_000


class GCentralError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class InputError(GCentralError):
    """Malformed or semantically invalid input (edge lists, labels, sets)."""

    exit_code = 2


class BudgetExceededError(GCentralError):
    """A run would exceed the subset budget or the memory limit."""

    exit_code = 3


def check_memory(needed: int, what: str) -> int:
    """Bytes left under MEMORY_LIMIT after ``needed``; BudgetExceededError if none."""
    if needed > MEMORY_LIMIT:
        raise BudgetExceededError(
            f"{what} needs about {needed / 2**20:.0f} MiB, above the "
            f"{MEMORY_LIMIT / 2**20:.0f} MiB memory limit"
        )
    return MEMORY_LIMIT - needed


class NumericalError(GCentralError):
    """A linear solve or factorization failed its residual check."""

    exit_code = 4


class TruncationError(GCentralError):
    """Too many Monte-Carlo walks hit the step cap to trust the averages."""

    exit_code = 4


class SamplingBudgetError(GCentralError):
    """Random-walk sampling ran out of steps before reaching its target."""

    exit_code = 3
