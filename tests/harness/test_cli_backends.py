"""The ``check``/``crosscheck`` experiments and ``--backend`` plumbing
through the CLI: happy paths, output files, and the exit-2 preflights
for unsupported combinations."""

import pytest

from repro.harness import runner
from repro.harness.cli import main


@pytest.fixture(autouse=True)
def fresh_caches(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "CACHE_DIR", str(tmp_path))
    runner._FINAL_SPEC_MEMO.clear()
    yield
    runner._FINAL_SPEC_MEMO.clear()


class TestCheck:
    def test_default_backend_is_icd(self, capsys):
        assert main(["check", "--names", "hedc"]) == 0
        out = capsys.readouterr().out
        assert "icd backend" in out
        assert "hedc" in out

    @pytest.mark.parametrize("backend", ["icd", "velodrome", "vc"])
    def test_each_backend_runs(self, backend, capsys):
        code = main(["check", "--backend", backend, "--names", "lusearch6"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"{backend} backend" in out
        # lusearch6's violation is blamed identically by every backend
        assert "unsafe_op0" in out

    def test_out_directory_receives_file(self, tmp_path, capsys):
        code = main(
            [
                "check",
                "--backend",
                "vc",
                "--names",
                "hedc",
                "--out",
                str(tmp_path / "r"),
            ]
        )
        assert code == 0
        assert (tmp_path / "r" / "check.txt").exists()

    def test_unknown_backend_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--backend", "nope", "--names", "hedc"])
        assert excinfo.value.code == 2


class TestCrosscheck:
    def test_agreement_on_catalog_subset(self, capsys):
        code = main(["crosscheck", "--names", "hedc", "lusearch6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all backends agree" in out
        assert "vc+sync" in out
        assert "oracle" in out
        assert "replay" in out


class TestPreflights:
    def test_backend_outside_check_exits_2(self, capsys):
        code = main(["table3", "--backend", "vc", "--names", "hedc"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--backend only applies to the check experiment" in err

    def test_backend_with_crosscheck_exits_2(self, capsys):
        code = main(["crosscheck", "--backend", "vc", "--names", "hedc"])
        assert code == 2
