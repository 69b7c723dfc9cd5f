"""Exception types raised by the mining engine.

Everything derives from :class:`MiningError` so callers can catch engine
failures without also swallowing programming errors.
"""


class MiningError(Exception):
    """Base class for all engine errors."""


class BadLength(MiningError):
    """A code's textual form has the wrong number of symbols."""


class WildcardNotSuffix(MiningError):
    """A branch symbol appears after a ``*`` in a code."""


class EmptyCode(MiningError):
    """A code consists only of wildcards and names no node."""


class BadSymbol(MiningError):
    """A branch symbol is not a single alphanumeric character."""


class BadHeader(MiningError):
    """A CSV input file does not start with the expected header row."""


class BadRow(MiningError):
    """A CSV data row does not have one cell per header column."""


class LevelOutOfRange(MiningError):
    """A depth argument falls outside the taxonomy's level range."""


class DuplicateCode(MiningError):
    """The same code text appears twice in a taxonomy input."""


class DanglingCode(MiningError):
    """An interior taxonomy row has no leaf beneath it."""


class EmptyTaxonomy(MiningError):
    """A taxonomy input contains no usable codes."""


class UnknownItem(MiningError):
    """A transaction references a code that is not a taxonomy leaf."""


class IndexOutOfRange(MiningError):
    """An itemset refers to an index outside the matrix vocabulary."""


class InvalidMinsup(MiningError):
    """A support threshold is zero, negative, or otherwise unusable."""


class InvalidConfidence(MiningError):
    """A confidence threshold falls outside (0, 1]."""


class ConfigError(MiningError):
    """A run configuration is inconsistent (lengths, paths, modes)."""


class MissingSubsetSupport(MiningError):
    """Rule generation needs the support of a subset that was not supplied."""


class ItemsetTooLarge(MiningError):
    """Subset expansion refused: the itemset would have too many subsets."""


class VocabularyTooLarge(MiningError):
    """The exhaustive reference miner refused an oversized vocabulary."""


class InputMismatch(MiningError):
    """Two runs being compared were produced from different datasets."""
