"""Every name in `anglelab.__all__` is bound in the package.  A name left in
`__all__` after its import is deleted breaks only `from anglelab import *`,
which nothing else runs."""

import anglelab


def test_every_public_name_resolves():
    names = anglelab.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(anglelab, name)] == []
    namespace: dict = {}
    exec("from anglelab import *", namespace)
    assert set(names) <= namespace.keys()
