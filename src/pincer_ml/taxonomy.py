"""Hierarchical item codes and the catalog that defines them.

Items live in a fixed-depth concept tree.  A code is written as a
fixed-width string with one branch symbol per level, most significant
first, padded with ``*`` for unspecified deeper levels: ``A11`` is a
leaf, ``A1*`` its parent, ``A**`` the top-level category.  Wildcards are
only ever a suffix, so every code names exactly one node, and a node is
its code text: the ancestor at depth ``d`` is the first ``d`` symbols,
padded with ``*``.
"""
from __future__ import annotations

import csv
import io
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import MiningError

WILDCARD = "*"
DEFAULT_LEVELS = 3


class ItemCode(str):
    """One node of the concept tree: its code text, hashed, compared and
    sorted as that text.  ``text`` returns it as a plain ``str``."""

    __slots__ = ()

    @property
    def depth(self) -> int:
        return len(self.rstrip(WILDCARD))

    @property
    def text(self) -> str:
        return str(self)


def parse_code(text: str, total_levels: int = DEFAULT_LEVELS) -> ItemCode:
    """Parse the fixed-width textual form of a code."""
    if len(text) != total_levels:
        raise MiningError(
            f"code {text!r}: expected {total_levels} symbols, got {len(text)}"
        )
    in_padding = False
    for ch in text:
        if ch == WILDCARD:
            in_padding = True
        elif in_padding:
            raise MiningError(f"code {text!r}: branch symbol after '*'")
        elif not ch.isalnum():
            raise MiningError(f"code {text!r}: symbol {ch!r} is not alphanumeric")
    if not text.rstrip(WILDCARD):
        raise MiningError(f"code {text!r} is all wildcards")
    return ItemCode(text)


def generalize(code: ItemCode, level: int) -> ItemCode:
    """Return the ancestor of ``code`` at the given depth.

    ``generalize(code, code.depth)`` is the code itself.
    """
    if not 1 <= level <= code.depth:
        raise MiningError(
            f"cannot generalize {code.text!r} (depth {code.depth}) to level {level}"
        )
    return ItemCode(code[:level] + WILDCARD * (len(code) - level))


class Taxonomy:
    """Display names for every node of the concept tree.

    ``names`` maps every node, leaf or interior, to a display name;
    interior nodes that were never named explicitly default to their own
    code text.  The leaves are the nodes at depth ``total_levels``.
    """

    names: Mapping[ItemCode, str]
    total_levels: int

    def __init__(self, names, total_levels) -> None:
        self.names, self.total_levels = names, total_levels

    @cached_property
    def _by_depth(self) -> dict[int, tuple[ItemCode, ...]]:
        by_depth: dict[int, list[ItemCode]] = {}
        for code in self.names:
            by_depth.setdefault(code.depth, []).append(code)
        return {d: tuple(sorted(codes)) for d, codes in by_depth.items()}

    def codes_at_depth(self, depth: int) -> tuple[ItemCode, ...]:
        """All nodes at ``depth``, sorted by code text."""
        if not 1 <= depth <= self.total_levels:
            raise MiningError(
                f"depth {depth} outside 1..{self.total_levels}"
            )
        return self._by_depth[depth]


def load_taxonomy(
    records: Iterable[tuple[str, str]], total_levels: int = DEFAULT_LEVELS
) -> Taxonomy:
    """Build a taxonomy from (code text, name) records.

    Records may name interior nodes as well as leaves.  Ancestors of
    every leaf are synthesized automatically; explicitly named interior
    nodes must have at least one leaf beneath them.
    """
    names: dict[ItemCode, str] = {}
    leaves: set[ItemCode] = set()
    interior: list[tuple[int, ItemCode]] = []
    count = 0
    for position, (text, name) in enumerate(records, start=1):
        count += 1
        try:
            code = parse_code(text, total_levels)
        except MiningError as exc:
            raise MiningError(f"record {position}: {exc}") from exc
        if code in names:
            raise MiningError(f"record {position}: duplicate code {text!r}")
        names[code] = name
        if code.depth == total_levels:
            leaves.add(code)
        else:
            interior.append((position, code))
    if count == 0:
        raise MiningError("no records")
    if not leaves:
        raise MiningError("no fully specified codes")
    # Each depth's nodes are the parents of the depth below, so every
    # node below the roots is generalized exactly once.
    ancestors: set[ItemCode] = set()
    nodes: set[ItemCode] = leaves
    for depth in range(total_levels - 1, 0, -1):
        nodes = {generalize(code, depth) for code in nodes}
        ancestors |= nodes
    for position, code in interior:
        if code not in ancestors:
            raise MiningError(
                f"record {position}: {code.text!r} has no leaf beneath it"
            )
    for ancestor in ancestors:
        names.setdefault(ancestor, ancestor.text)
    return Taxonomy(names, total_levels)


def _check_header(row: list[str] | None, expected: tuple[str, ...], path: Path) -> None:
    got = tuple(cell.strip().lower() for cell in row) if row else ()
    if got != expected:
        raise MiningError(
            f"{path}: expected header {','.join(expected)!r}, got {row!r}"
        )


def _csv_records(path: Path, header: tuple[str, ...]) -> Iterator[tuple[str, str]]:
    data = path.read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is what was decoded: ``data`` without any BOM.
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise MiningError(f"{path}, line {line}: not UTF-8 ({exc.reason})") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        _check_header(next(reader, None), header, path)
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise MiningError(
                    f"{path}, line {reader.line_num}: expected "
                    f"{len(header)} cells, got {len(row)}"
                )
            key = row[0].strip()
            if not key:
                raise MiningError(f"{path}, line {reader.line_num}: blank {header[0]}")
            yield key, row[1].strip()
    except csv.Error as exc:
        raise MiningError(f"{path}, line {reader.line_num}: {exc}") from exc


def read_taxonomy_csv(path: str | Path, total_levels: int | None = None) -> Taxonomy:
    """Load a taxonomy from a ``code,name`` CSV file.

    When ``total_levels`` is omitted it is inferred from the width of
    the first code in the file.
    """
    path = Path(path)
    records = list(_csv_records(path, ("code", "name")))
    if total_levels is None:
        if not records:
            raise MiningError(f"{path}: no records")
        total_levels = len(records[0][0])
    return load_taxonomy(records, total_levels)
