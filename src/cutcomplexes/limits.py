"""Size guards shared across the package.

Everything here is exact arithmetic at desk scale; the guards stop accidental
exponential blowups, not legitimate use.  The cap bounds ground sets of
exhaustive builders and, as 2^cap, the faces the face walk may make.  Caps
can be raised explicitly: most functions take a ``cap`` argument, the CLI has
``--force N``, and ``CUTCOMPLEXES_MAX_GROUND`` overrides the default.
"""

import os

# Default cap: 20 ground vertices for exhaustive builders, 2^20 walked faces.
ENUM_CAP = 20
# Vertex cap for the exact independence number without an explicit override.
INDEPENDENCE_CAP = 24
# Ground-set cap for the two-sided Alexander duality verification.
DUALITY_CHECK_CAP = 12
# Element cap for composition-poset order complexes.
POSET_ELEMENT_CAP = 5000

ENV_CAP = "CUTCOMPLEXES_MAX_GROUND"


class SizeCapError(ValueError):
    """An operation would exceed a size guard."""


def resolve_cap(cap=None):
    """Effective ground-set cap: explicit argument, else env override, else default."""
    if cap is not None:
        return cap
    env = os.environ.get(ENV_CAP)
    if env:
        try:
            return int(env)
        except ValueError:
            raise SizeCapError(f"{ENV_CAP} must be an integer, got {env!r}") from None
    return ENUM_CAP
