"""The package namespace: every public name, imported on first access."""

import subprocess
import sys

import pytest

import mvcheb


def test_each_public_name_is_the_object_its_submodule_defines():
    homes = {name: getattr(mvcheb, name).__module__ for name in mvcheb.__all__}
    assert all(home.startswith("mvcheb.") for home in homes.values()), homes
    assert all(getattr(sys.modules[homes[name]], name) is getattr(mvcheb, name) for name in homes)


def test_submodules_resolve_as_attributes():
    code = (
        "import sys, mvcheb; loaded = 'mvcheb.experiments' in sys.modules; "
        "print(loaded, mvcheb.experiments is sys.modules['mvcheb.experiments'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_dir_covers_all_and_star_import_binds_it():
    assert set(mvcheb.__all__) <= set(dir(mvcheb))
    namespace = {}
    exec("from mvcheb import *", namespace)
    assert all(namespace[name] is getattr(mvcheb, name) for name in mvcheb.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mvcheb.no_such_name
