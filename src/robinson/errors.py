"""Exception types shared across the package.

Exit-code mapping used by the CLI: InputError -> 2, SizeGuardError -> 3.
"""


class InputError(ValueError):
    """Malformed or inconsistent input (bad dimensions, bad file, bad flags)."""


class PreconditionError(InputError):
    """An operation's stated precondition does not hold (e.g. asymmetric d)."""


class SizeGuardError(RuntimeError):
    """A brute-force search, an instance generator, two-way recognition, a
    premise check or a star search over every center refused to run
    because the instance is too large."""
