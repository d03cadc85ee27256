import inspect

import econamp


def test_all_is_every_public_name_the_package_binds():
    public = {
        name for name, value in vars(econamp).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(econamp.__all__) == public
    assert len(econamp.__all__) == len(public)  # no duplicates


def test_every_exported_name_resolves_to_econamp_code():
    for name in econamp.__all__:
        value = getattr(econamp, name)
        assert value.__name__ == name
        assert value.__module__.startswith("econamp."), name
