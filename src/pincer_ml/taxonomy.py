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


def parse_code(text: str, total_levels: int) -> ItemCode:
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


def load_taxonomy(records: Iterable[tuple[str, str]]) -> Taxonomy:
    """Build a taxonomy from (code text, name) records.

    The number of levels is the width of the first record's code.
    Records may name interior nodes as well as leaves.  Ancestors of
    every leaf are synthesized automatically; explicitly named interior
    nodes must have at least one leaf beneath them.
    """
    names: dict[ItemCode, str] = {}
    leaves: set[ItemCode] = set()
    interior: list[tuple[int, ItemCode]] = []
    for position, (text, name) in enumerate(records, start=1):
        if position == 1:
            total_levels = len(text)
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
    if not names:
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


def _load_csv(path: str | Path, header: tuple[str, str], load):
    """Run ``load`` over the (key, value) rows of a UTF-8 CSV file.

    The file opens with ``header``, and blank rows are skipped.  A
    ``MiningError`` from reading the file or from ``load`` is raised
    again once, with the file name in front, and with the line number
    too while a row is being read.
    """
    path = Path(path)
    reader = None  # the csv reader, from its header to its last row

    def rows(lines) -> Iterator[tuple[str, str]]:
        nonlocal reader
        for row in lines:
            if not row:
                continue
            if len(row) != len(header):
                raise MiningError(f"expected {len(header)} cells, got {len(row)}")
            key = row[0].strip()
            if not key:
                raise MiningError(f"blank {header[0]}")
            yield key, row[1].strip()
        reader = None

    line = 0
    try:
        try:
            text = path.read_bytes().decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            # exc.object is what was decoded: the bytes without any BOM.
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise MiningError(f"not UTF-8 ({exc.reason})") from exc
        reader = csv.reader(io.StringIO(text, newline=""))
        first = next(reader, None)
        if tuple(cell.strip().lower() for cell in first or ()) != header:
            reader = None
            raise MiningError(f"expected header {','.join(header)!r}, got {first!r}")
        return load(rows(reader))
    except (csv.Error, MiningError) as exc:
        line = reader.line_num if reader else line
        where = f"{path}, line {line}" if line else path
        raise MiningError(f"{where}: {exc}") from exc


def read_taxonomy_csv(path: str | Path) -> Taxonomy:
    """Load a taxonomy from a ``code,name`` CSV file.

    The number of levels is the width of the first code in the file.
    """
    return _load_csv(path, ("code", "name"), load_taxonomy)
