"""The package's public surface."""

import plainscan


def test_every_exported_name_resolves():
    missing = [name for name in plainscan.__all__ if not hasattr(plainscan, name)]
    assert not missing, f"__all__ names missing from the package: {missing}"
