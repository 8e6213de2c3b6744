"""Tests for the repro-nbody CLI."""

import pytest

from repro.cli import main


class TestCLI:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "NV H100-80" in out and "AMD MI300X" in out

    def test_run_octree(self, capsys):
        rc = main(["run", "--algorithm", "octree", "--n", "300",
                   "--steps", "2", "--workload", "plummer"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "energy drift" in out
        assert "build_tree" in out

    def test_run_bvh_galaxy(self, capsys):
        rc = main(["run", "--algorithm", "bvh", "--n", "200", "--steps", "1"])
        assert rc == 0
        assert "sort" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--algorithm", "all-pairs", "--ranks", "2"],
        ["--algorithm", "all-pairs-col", "--tree-update", "refit"],
        ["--ranks", "0"],
    ])
    def test_illegal_config_is_a_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--n", "50", "--steps", "1", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("repro-nbody run: error: ")

    def test_triad(self, capsys):
        assert main(["triad", "--elements", str(2**18)]) == 0
        out = capsys.readouterr().out
        assert "Th. [GB/s]" in out

    def test_project(self, capsys):
        rc = main(["project", "--algorithm", "bvh", "--n", "500",
                   "--device", "h100", "gh200", "--workload", "uniform"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "NV H100-80" in out and "host (wall clock)" in out

    def test_validate(self, capsys):
        rc = main(["validate", "--n", "300", "--steps", "4"])
        assert rc == 0
        assert "PASSED=True" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "fmm"])
