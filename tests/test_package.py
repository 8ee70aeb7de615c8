import mumkit


def test_every_public_name_resolves():
    missing = [name for name in mumkit.__all__ if not hasattr(mumkit, name)]
    assert missing == []
    assert len(set(mumkit.__all__)) == len(mumkit.__all__)
