"""Smoke tests of the scripts in studies/, at their smallest size."""

import importlib.util
from pathlib import Path

STUDIES = Path(__file__).resolve().parent.parent / "studies"


def load_study(name):
    spec = importlib.util.spec_from_file_location(name, STUDIES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_names_each_difference(tmp_path):
    # the directory comparison alone, on hand-made outputs: no git, no run
    compare = load_study("compare_outputs")
    series = "t,E_tot,delta_pairs\n0.0,2.0,0.0\n150.0,1.5,0.25\n300.0,1.25,0.5\n"
    snapshot = "# t = 0.0\nx,E,n_e\n-1.0,0.0,1.01\n1.0,-0.0,1.01\n"
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "out").mkdir(parents=True)
        (root / "out" / "series.csv").write_text(series)
        (root / "out" / "fields_000000.csv").write_text(snapshot)
        (root / "out" / "manifest.json").write_text('{\n  "a": 1\n}\n')
    assert compare.compare_dirs(a, b) == []

    (b / "out" / "series.csv").write_text(series.replace("1.5,0.25", "1.5,0.2500001"))
    (b / "out" / "fields_000000.csv").write_text(
        snapshot.replace("# t = 0.0", "# t = 1.0").replace("-0.0,1.01", "-0.0,1.02")
    )
    (b / "out" / "manifest.json").write_text('{\n  "a": 2\n}\n')
    (a / "out" / "fields_000001.csv").write_text(snapshot)
    assert compare.compare_dirs(a, b) == [
        "out/fields_000000.csv: first difference at line 1; "
        "largest relative difference: n_e 0.0098",
        "out/fields_000001.csv: only in a",
        "out/manifest.json: first difference at line 2",
        "out/series.csv: first difference at line 3, column delta_pairs; "
        "largest relative difference: delta_pairs 4e-07",
    ]
