"""The demos run to completion from any directory and write only there."""

import pathlib
import runpy

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_run_from_any_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert len(DEMOS) == 4
    for path in DEMOS:
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            assert exc.code in (None, 0), path.name
    assert [p.name for p in tmp_path.iterdir()] == ["phase_diagram.csv"]
    assert "wrote" in capsys.readouterr().out
