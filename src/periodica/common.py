"""Shared error types, the truncated-value wrapper and the identity memo."""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterator, Optional, Tuple, TypeVar

T = TypeVar("T")


class PeriodicaError(Exception):
    """Base class for all library errors."""


class ParseError(PeriodicaError):
    """Malformed input: a file, or a command-line value.  Errors at a place
    in a file carry its 1-based line and column; the others (a missing
    directive, a bad option or builtin name) have ``line = col = None`` and
    their message names no location."""

    def __init__(self, msg: str, line: Optional[int] = None,
                 col: Optional[int] = None):
        super().__init__(msg if line is None
                         else f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col
        self.msg = msg


class PreconditionError(PeriodicaError):
    """An operation was called outside its stated domain."""


class TruncationError(PeriodicaError):
    """A bound was exhausted before the computation could conclude."""


class CheckFailed(PeriodicaError):
    """A verification-style operation produced a negative verdict."""


class Trunc:
    """A natural number that may only be known as ">= bound".

    ``Trunc(3)`` is the exact value 3; ``Trunc(10, exact=False)`` means the
    computation was cut off at 10 and the true value is at least that.
    """

    __slots__ = ("value", "exact")

    def __init__(self, value: int, exact: bool = True):
        self.value = value
        self.exact = exact

    def __eq__(self, other):
        if isinstance(other, int):
            return self.exact and self.value == other
        if isinstance(other, Trunc):
            return self.exact == other.exact and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash(self.value) if self.exact else hash((self.value, False))

    def __str__(self):
        return str(self.value) if self.exact else f">= {self.value}"

    def __repr__(self):
        return f"Trunc({self.value}, exact={self.exact})"

    def to_json(self):
        return self.value if self.exact else f">= {self.value}"


class IdentityMemo:
    """Values built once per identity of their key objects.  An entry is
    keyed by the ``id`` of each of ``objs`` and by the ``plain`` values, and
    holds ``objs``, so no id of a live entry is recycled; equal but distinct
    objects get entries of their own.  Iteration gives ``(objs, value)``."""

    def __init__(self):
        self._entries: Dict[tuple, Tuple[tuple, object]] = {}

    def get(self, objs: tuple, build: Callable[[], T], *plain: Hashable) -> T:
        """The value for ``objs`` and ``plain``, from ``build()`` on the
        first request."""
        key = (*map(id, objs), *plain)
        got = self._entries.get(key)
        if got is None:
            got = self._entries[key] = (objs, build())
        return got[1]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[tuple, object]]:
        return iter(self._entries.values())
