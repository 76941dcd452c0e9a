"""The id space of one plan's columns.

Every column an operator yields holds int64 ids: an id >= 0 is the store
dictionary's, -1 (:data:`UNBOUND`) an unbound cell, and an id <= -2 a term
the plan computed that the store does not hold (a BIND or SELECT
expression's value, an aggregate's result, a VALUES constant), kept by the
plan's :class:`TermTable`. The table looks every term up in the store
dictionary first, so one term has one id and joins and DISTINCT compare
ids; it never writes to the store dictionary. It is the ``dictionary``
the serializers, ``SelectResult`` and the answer cache decode and encode
through, handing store ids to the store dictionary as they are.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from ..rdf.terms import Term
from ..store.dictionary import TermDictionary, numeric_columns_of

__all__ = ["UNBOUND", "TermTable"]

#: The id of an unbound cell.
UNBOUND = -1


def _store_only(ids: np.ndarray) -> bool:
    return not len(ids) or int(ids.min()) >= 0


class TermTable:
    """Store ids plus the terms one plan computed (ids -2, -3, ...)."""

    __slots__ = ("store", "_terms", "_ids")

    def __init__(self, store: TermDictionary) -> None:
        self.store = store
        self._terms: list[Term] = []
        self._ids: dict[Term, int] = {}

    def id(self, term: Term | None) -> int:
        """The id of ``term`` (:data:`UNBOUND` for ``None``): the store's,
        else this plan's, assigned here when neither holds it yet."""
        if term is None:
            return UNBOUND
        found = self.store.lookup(term)
        if found is None:
            found = self._ids.get(term)
        if found is None:
            found = self._ids[term] = -2 - len(self._terms)
            self._terms.append(term)
        return found

    def ids(self, terms: Iterable[Term | None]) -> np.ndarray:
        return np.array([self.id(term) for term in terms], dtype=np.int64)

    def decode(self, term_id: int) -> Term | None:
        if term_id >= 0:
            return self.store.decode(term_id)
        return None if term_id == UNBOUND else self._terms[-2 - term_id]

    def decode_batch(self, term_ids: np.ndarray) -> list[Term | None]:
        """Each id's term, ``None`` where unbound."""
        if _store_only(term_ids):
            return self.store.decode_batch(term_ids)
        return [self.decode(term_id) for term_id in term_ids.tolist()]

    def cells(self, term_ids: np.ndarray, encode: Callable[[Term], str]) -> list[str]:
        """``encode(term)`` of each id, ``""`` where unbound: the store's
        kept cells for store ids, each computed term encoded once here."""
        if _store_only(term_ids):
            return self.store.cells(term_ids, encode)
        cells = np.full(len(term_ids), "", dtype=object)
        stored, computed = term_ids >= 0, term_ids <= -2
        cells[stored] = self.store.cells(term_ids[stored], encode)
        ids, inverse = np.unique(term_ids[computed], return_inverse=True)
        made = [encode(self._terms[-2 - term_id]) for term_id in ids.tolist()]
        cells[computed] = np.array(made, dtype=object)[inverse]
        return cells.tolist()

    def numeric(self, term_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(values, kinds)`` of each id off the store's value column and
        the computed terms' own (``VALUE_OTHER`` where unbound): negative
        ids index from the end, past the store's, never into them."""
        values, kinds = self.store.numeric_columns()
        if not _store_only(term_ids):
            local_values, local_kinds = numeric_columns_of(self._terms)
            values = np.concatenate((values, local_values[::-1], [0.0]))
            kinds = np.concatenate((kinds, local_kinds[::-1], [0]))
        return values[term_ids], kinds[term_ids]
