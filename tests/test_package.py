import neucmds


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from neucmds import *", namespace)
    assert [name for name in neucmds.__all__ if name not in namespace] == []
