import oscnet


def test_star_import_resolves_every_export():
    # a name left in __all__ after its object was deleted fails the import
    namespace = {}
    exec("from oscnet import *", namespace)
    missing = [name for name in oscnet.__all__ if name not in namespace]
    assert not missing
    assert len(set(oscnet.__all__)) == len(oscnet.__all__)
