import importlib.util
import os
import pathlib
import re
import subprocess
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


def test_code_lines_prints_module_lines_their_total_and_the_dataclass_count():
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, "code_lines.py")],
                          capture_output=True, text=True, check=True)
    *modules, total, classes = [line.split() for line in proc.stdout.splitlines()]
    assert modules and all(name.endswith(".py") for _, name in modules)
    assert total[1] == "total" and int(total[0]) == sum(int(count) for count, _ in modules)
    assert classes[1:] == ["classes", "built", "as", "dataclasses", "at", "import"]
    assert int(classes[0]) >= 1


def test_import_time_prints_its_three_figures_and_the_importtime_list():
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, "import_time.py"), "-n", "1"],
                          capture_output=True, text=True, check=True)
    wall, after_numpy, rss, heading, *entries = proc.stdout.splitlines()
    assert re.fullmatch(r"import localex\.cli: \d+\.\d{3} s \(min of 1 interpreters\)", wall)
    assert re.fullmatch(r"import localex\.cli after import numpy: \d+\.\d ms "
                        r"\(min of 1 interpreters\)", after_numpy)
    assert re.fullmatch(r"ru_maxrss of import localex\.cli over import numpy: "
                        r"\d+\.\d\d-\d+\.\d\d MiB \(1 interpreters\)", rss)
    assert heading == "largest cumulative -X importtime entries (one run):"
    assert 1 <= len(entries) <= 10
    assert all(re.fullmatch(r" *\d+\.\d ms  \S+", entry) for entry in entries)
    assert "localex.cli" in [entry.split()[-1] for entry in entries]


def test_cpu_per_op_prints_wall_cpu_and_their_ratio_for_each_op_and_the_pass():
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, "cpu_per_op.py"),
                           "desk_sweeps", "-k", "1"],
                          capture_output=True, text=True, check=True)
    title, heading, *rows = proc.stdout.splitlines()
    assert title == "desk_sweeps, seed 0: mean per pass over 1 passes after one warm-up"
    assert heading.split() == ["op", "wall_s", "cpu_s", "cpu/wall", "peak_mib"]
    assert [row.split()[0] for row in rows] == ["stability", "converge", "fidelity",
                                                "distributions", "explain_lime",
                                                "shap_stability", "pass"]
    assert all(re.fullmatch(r"\S+ +\d+\.\d{4} +\d+\.\d{4} +\d+\.\d\d +\d+\.\d", row)
               for row in rows)
    peaks = [float(row.split()[-1]) for row in rows]
    assert all(peak > 0 for peak in peaks) and peaks[-1] == max(peaks[:-1])
