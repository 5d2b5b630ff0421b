"""Every name is imported from the submodule that defines it; the package
itself holds only its docstring and `__version__`."""

import importlib


def test_submodules_still_import_by_name():
    from wva_lab import cli, families

    assert cli is importlib.import_module("wva_lab.cli")
    assert families.FAMILIES is importlib.import_module("wva_lab.experiments").FAMILIES
