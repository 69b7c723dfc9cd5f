"""Exception types raised by the mining engine, one per nonzero exit code.

Everything derives from :class:`MiningError` so callers can catch engine
failures without also swallowing programming errors.  Each class carries
the exit code the command line returns for it; the message tells one
failure of a class from another.
"""


class MiningError(Exception):
    """A run failed on its input: bad data, an unknown item, mismatched runs."""

    exit_code = 1


class ConfigError(MiningError):
    """A run was asked for something unusable: a bad flag or threshold."""

    exit_code = 2


class LimitError(MiningError):
    """An exact computation was refused because its input is too large."""

    exit_code = 3
