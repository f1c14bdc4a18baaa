import importlib.util
import os
import pathlib
import sys

from conftest import ASSETS

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def read_dir(path):
    """The file names under path, sorted, and each file's bytes."""
    files = sorted(pathlib.Path(path).iterdir())
    return [f.name for f in files], [f.read_bytes() for f in files]


def test_make_assets_reproduces_the_checked_in_assets(tmp_path, monkeypatch):
    expected = read_dir(ASSETS)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ on it
    spec = importlib.util.spec_from_file_location(
        "make_assets", os.path.join(SCRIPTS, "make_assets.py"))
    make_assets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_assets)
    monkeypatch.setattr(make_assets, "ASSETS", str(tmp_path))
    make_assets.main()
    assert read_dir(tmp_path) == expected
    assert read_dir(ASSETS) == expected
