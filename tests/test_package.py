import rpsets


def test_every_export_resolves():
    missing = [name for name in rpsets.__all__ if not hasattr(rpsets, name)]
    assert not missing
