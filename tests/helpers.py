"""Store doubles shared by the test suite."""


class _RowsOnly:
    """Only ``triples`` / ``count`` / ``__len__`` / ``statistics`` of a store."""

    def __init__(self, store):
        self._store = store

    def triples(self, pattern=(None, None, None)):
        return self._store.triples(pattern)

    def count(self, pattern=(None, None, None)):
        return self._store.count(pattern)

    def __len__(self):
        return len(self._store)

    def statistics(self):
        return self._store.statistics()


def rows_only(store):
    """``store`` behind a double that cannot serve id scans.

    ``as_id_scan_source`` then answers ``None``, so ``QueryEngine`` plans
    from the same statistics but lowers every BGP onto the row operators —
    the reference the batch operators are compared with.
    """
    return _RowsOnly(store)
