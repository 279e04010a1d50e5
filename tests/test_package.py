import qgini


def test_every_public_name_resolves_once():
    # a stale entry would make `from qgini import *` raise AttributeError
    names = qgini.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(qgini, name), name
