"""``python -m repro.profile``: artefacts, spec selection, failure modes."""

import json

import pytest

from repro.obs.tap import ObsTap
from repro.obs.tracer import validate_chrome_trace
from repro.profile import build_parser, hotspot_table, main

TINY_GRID = {
    "specs": [
        {
            "name": "profile-tiny",
            "design": "roborun",
            "environment": {
                "obstacle_density": 0.15,
                "obstacle_spread": 25.0,
                "goal_distance": 30.0,
                "seed": 5,
            },
            "mission": {"max_decisions": 3, "max_mission_time_s": 30.0},
        },
        {
            "name": "profile-tiny-baseline",
            "design": "spatial_oblivious",
            "environment": {
                "obstacle_density": 0.15,
                "obstacle_spread": 25.0,
                "goal_distance": 30.0,
                "seed": 5,
            },
            "mission": {"max_decisions": 2, "max_mission_time_s": 30.0},
        },
    ]
}


@pytest.fixture()
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(TINY_GRID))
    return path


class TestMain:
    def test_produces_all_artefacts(self, grid_file, tmp_path, caplog):
        out_dir = tmp_path / "out"
        code = main([str(grid_file), "--out-dir", str(out_dir)])
        assert code == 0
        trace = out_dir / "profile-tiny_trace.json"
        metrics = out_dir / "profile-tiny_metrics.json"
        prom = out_dir / "profile-tiny_metrics.prom"
        assert trace.exists() and metrics.exists() and prom.exists()
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        snapshot = json.loads(metrics.read_text())
        assert snapshot["schema_version"] == 1
        assert "# TYPE repro_decisions_total counter" in prom.read_text()

    def test_hotspot_table_is_logged(self, grid_file, tmp_path, capsys):
        code = main([str(grid_file), "--out-dir", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "| span |" in out
        assert "decision" in out

    def test_sense_capture_is_a_hotspot(self, grid_file, tmp_path, capsys):
        code = main([str(grid_file), "--out-dir", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "| sense.capture |" in out

    def test_spec_selection_by_name(self, grid_file, tmp_path):
        out_dir = tmp_path / "o"
        code = main([
            str(grid_file), "--spec", "profile-tiny-baseline",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "profile-tiny-baseline_trace.json").exists()

    def test_unknown_spec_fails_listing_choices(self, grid_file, tmp_path, capsys):
        code = main([str(grid_file), "--spec", "nope", "--out-dir", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "profile-tiny" in out
        assert not list(tmp_path.glob("*_trace.json"))

    def test_list_flies_nothing(self, grid_file, tmp_path, capsys):
        code = main([str(grid_file), "--list", "--out-dir", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile-tiny" in out
        assert "profile-tiny-baseline" in out
        assert not (tmp_path / "o").exists()

    def test_empty_grid_fails(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"specs": []}))
        assert main([str(empty)]) == 1


class TestHotspotTable:
    def test_ranked_by_total_and_capped(self):
        tap = ObsTap()
        slow = tap.tracer.begin("slow")
        for _ in range(3):
            fast = tap.tracer.begin("fast")
            tap.tracer.end(fast)
        tap.tracer.end(slow)
        table = hotspot_table(tap, top=1)
        assert table.columns == ["span", "count", "total_ms", "mean_ms", "max_ms"]
        assert len(table.rows) == 1
        assert table.rows[0][0] == "slow"

    def test_parser_defaults(self):
        args = build_parser().parse_args(["grid.json"])
        assert args.top == 10
        assert args.spec is None
        assert not args.list
