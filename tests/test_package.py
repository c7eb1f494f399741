"""The package namespace: everything it exports resolves."""

from __future__ import annotations

import copoly


def test_every_exported_name_resolves():
    missing = [name for name in copoly.__all__ if not hasattr(copoly, name)]
    assert missing == []
    assert len(set(copoly.__all__)) == len(copoly.__all__)
