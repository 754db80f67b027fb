"""The package's public surface."""

import types

import promata


def test_every_public_import_is_exported():
    public = {
        name
        for name, value in vars(promata).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(promata.__all__)
    assert set(promata.__all__) <= public
