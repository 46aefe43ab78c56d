"""Additional CLI edge cases and the module entry point."""

import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.sparse import write_matrix_market
from tests.conftest import random_csr


def test_module_entry_point(tmp_path, rng):
    m = random_csr(rng, 25, 25, 0.15)
    p = tmp_path / "m.mtx"
    write_matrix_market(p, m)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "single", str(p)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-1000:]
    assert "gflops" in proc.stdout


def test_single_float_precision(tmp_path, rng, capsys):
    m = random_csr(rng, 30, 30, 0.15)
    p = tmp_path / "m.mtx"
    write_matrix_market(p, m)
    assert main(["single", str(p), "--float", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "single precision" in out


def test_runall_isolates_failures(tmp_path, rng, capsys):
    """A broken matrix file must not impede the remaining runs
    (Appendix A.4: 'failed launches do not impede launches after')."""
    write_matrix_market(tmp_path / "good.mtx", random_csr(rng, 20, 20, 0.2))
    (tmp_path / "broken.mtx").write_text("%%MatrixMarket nonsense\n")
    out_csv = tmp_path / "res.csv"
    assert main(["runall", str(tmp_path), "--out", str(out_csv)]) == 0
    captured = capsys.readouterr()
    assert "FAILED" in captured.err
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 2  # header + the good matrix


def test_single_requires_existing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        main(["single", str(tmp_path / "missing.mtx")])


def test_compare_output_names_all_algorithms(tmp_path, rng, capsys):
    m = random_csr(rng, 30, 30, 0.2)
    p = tmp_path / "m.mtx"
    write_matrix_market(p, m)
    assert main(["compare", str(p), "--float"]) == 0
    out = capsys.readouterr().out
    for name in ("ac-spgemm", "cusparse", "bhsparse", "rmerge", "nsparse", "kokkos"):
        assert name in out


@pytest.mark.parametrize("command", ["single", "analyze"])
def test_backend_engine_runs_on_default_host_engine(
    command, tmp_path, rng, monkeypatch
):
    """``--engine adaptive`` names a backend; the AC-SpGEMM pipeline
    under it runs on the default host engine, not the oracle."""
    import repro.backends as backends

    seen = []
    run_backend = backends.run_backend

    def spy(name, a, b, opts=None, **kw):
        seen.append(opts.engine)
        return run_backend(name, a, b, opts, **kw)

    monkeypatch.setattr(backends, "run_backend", spy)
    p = tmp_path / "m.mtx"
    write_matrix_market(p, random_csr(rng, 30, 30, 0.15))
    assert main([command, str(p), "--engine", "adaptive"]) == 0
    assert seen == ["batched"]
