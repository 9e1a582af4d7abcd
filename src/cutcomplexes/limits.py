"""Size guards shared across the package.

Everything here is exact arithmetic at desk scale; the guards stop accidental
exponential blowups, not legitimate use.  Every exhaustive search (the face
walk, the minimal-transversal search, the independent d-set scan, the
independence number, ``alpha_table``, the skeleton scan, and the elements
and maximal-chain search of a composition poset) counts the work it does
against a budget of 2^cap units, whatever the ground size, and raises
``SizeCapError`` once the count goes over.  One policy sets the cap for
every search: the ``--force N`` of the CLI command now running
(``override``), else ``CUTCOMPLEXES_MAX_GROUND``, else ``ENUM_CAP``.  A cap
is an integer from 0 to ``MAX_CAP``.
"""

import os

# Default cap: every exhaustive search may do 2^20 units of work.
ENUM_CAP = 20
# No search may be allowed more than 2^64 units, which no run could spend.
MAX_CAP = 64

ENV_CAP = "CUTCOMPLEXES_MAX_GROUND"

# The ``--force N`` of the CLI command now running; ``cli.main`` sets it for
# one command and puts None back when the command ends.
override = None


class SizeCapError(ValueError):
    """An operation would exceed a size guard."""


def resolve_cap():
    """Effective cap: ``override``, else the env variable, else the default.

    It must be an integer from 0 to ``MAX_CAP``; anything else raises
    ``SizeCapError`` naming the setting and the value.
    """
    name, value = "the budget cap", override
    if value is None:
        name, value = ENV_CAP, os.environ.get(ENV_CAP) or str(ENUM_CAP)
    if not str(value).isdecimal():
        raise SizeCapError(f"{name} must be a nonnegative integer, got {value!r}")
    # compare digits first: int() refuses strings of over 4,300 digits
    digits = str(value).lstrip("0") or "0"
    if len(digits) > len(str(MAX_CAP)) or int(digits) > MAX_CAP:
        raise SizeCapError(f"{name} must be at most {MAX_CAP}, got {value!r}")
    return int(digits)


def budget(what):
    """``spend(units=1)`` for one search: it counts work against 2^cap units,
    returns the units left, and raises ``SizeCapError("<what> exceeds the
    2^cap budget")`` past them."""
    limit = resolve_cap()
    left = 1 << limit

    def spend(units=1):
        nonlocal left
        left -= units
        if left < 0:
            raise SizeCapError(f"{what} exceeds the 2^{limit} budget")
        return left

    return spend
