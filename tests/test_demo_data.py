import importlib.util


def test_shipped_series_is_what_the_script_makes(data_dir):
    path = data_dir.parent / "scripts" / "make_synthetic_series.py"
    spec = importlib.util.spec_from_file_location("make_synthetic_series", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)  # defines the functions, writes nothing
    assert script.series_text().encode("utf-8") == (data_dir / "synthetic_series.csv").read_bytes()
