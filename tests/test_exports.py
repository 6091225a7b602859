"""The package's public names."""

import collections

import maflow


def test_every_exported_name_is_listed_once_and_resolves():
    counts = collections.Counter(maflow.__all__)
    assert [name for name, k in counts.items() if k > 1] == []
    assert [name for name in maflow.__all__ if not hasattr(maflow, name)] == []
