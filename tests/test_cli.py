"""Command-line interface: exit codes, file contracts, determinism.

All invocations go through ``main(argv)`` in process.  The determinism
contract is byte equality of every CSV across identical runs into
different output directories.
"""

import json
import math

import numpy as np
import pytest

from bergman_lab import cli
from bergman_lab.cli import EXIT_INCONCLUSIVE, EXIT_PASS, EXIT_USAGE, main
from bergman_lab.distance import DistanceReport, SweepEntry
from bergman_lab.profiles import FINITE, DivergenceProfile, S2Bracket


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


# ---------------------------------------------------------------------------
# Usage errors


def test_missing_subcommand(capsys):
    assert main([]) == EXIT_USAGE
    assert "missing subcommand" in capsys.readouterr().err


def test_unknown_flag(tmp_path):
    assert run(tmp_path, "verify", "--no-such-flag", "1") == EXIT_USAGE


def test_rejected_configuration_names_hypothesis(tmp_path, capsys):
    # lam = 0.5 violates lam > alpha + 1: refused as a usage error
    code = run(tmp_path, "verify", "--lemma", "rro",
               "--alpha", "0", "--lambda", "0.5")
    assert code == EXIT_USAGE
    assert "lam > alpha + 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_lemma_files(tmp_path):
    code = run(tmp_path, "verify", "--lemma", "rro",
               "--alpha", "0", "--lambda", "2", "--basename", "rro")
    assert code == EXIT_PASS
    csv_text = (tmp_path / "rro.csv").read_text()
    lines = csv_text.splitlines()
    comments = [ln for ln in lines if ln.startswith("# ")]
    assert comments, "expected convention comment lines"
    header = next(ln for ln in lines if not ln.startswith("# "))
    assert header.split(",")[:3] == ["lemma_id", "status", "max_ratio"]
    assert ",pass," in csv_text
    payload = json.loads((tmp_path / "rro.json").read_text())
    assert payload["schema_version"] == "1"
    assert payload["reports"][0]["pass"] is True
    assert payload["config"]["lemma"] == "rro"


def test_verify_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("# comment line\nlemma = rro\nalpha = 0\nlambda = 0.5\n")
    # the file alone is a rejected configuration ...
    assert run(tmp_path, "verify", "--config", str(cfg)) == EXIT_USAGE
    # ... and the flag wins over the file value
    assert run(tmp_path, "verify", "--config", str(cfg),
               "--lambda", "2") == EXIT_PASS


def test_verify_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("lemma = rro\nalpha = 0\nlambda = 2\nbogus = 1\n")
    assert run(tmp_path, "verify", "--config", str(cfg)) == EXIT_USAGE


# ---------------------------------------------------------------------------
# whitney


def test_whitney_halfplane_strip(tmp_path):
    code = run(tmp_path, "whitney", "--domain", "halfspace", "--n", "1",
               "--lateral", "0,1", "--heights", "0.0625,1.0",
               "--basename", "w")
    assert code == EXIT_PASS
    payload = json.loads((tmp_path / "w.json").read_text())
    assert payload["cube_count"] == 30
    assert payload["all_ok"] is True
    rows = [ln for ln in (tmp_path / "w_cubes.csv").read_text().splitlines()
            if ln and not ln.startswith("# ")]
    assert len(rows) == 31  # header plus one row per cube
    summary = (tmp_path / "w_summary.csv").read_text()
    assert "cover" in summary and "disjoint" in summary


def test_whitney_empty_region(tmp_path):
    code = run(tmp_path, "whitney", "--domain", "halfspace", "--n", "1",
               "--lateral", "0,0", "--heights", "0.25,1.0",
               "--basename", "w0")
    assert code == EXIT_PASS
    payload = json.loads((tmp_path / "w0.json").read_text())
    assert payload["cube_count"] == 0


def test_whitney_ball_cells(tmp_path):
    code = run(tmp_path, "whitney", "--domain", "ball", "--n", "2",
               "--levels", "3", "--basename", "wb")
    assert code == EXIT_PASS
    payload = json.loads((tmp_path / "wb.json").read_text())
    assert payload["all_ok"] is True
    assert payload["level_counts"] == [8, 16, 32]
    assert payload["cover_fraction"] == 1.0
    assert (tmp_path / "wb_cells.csv").exists()


# ---------------------------------------------------------------------------
# norms


def test_norms_ball_table(tmp_path):
    code = run(tmp_path, "norms", "--domain", "ball", "--n", "3",
               "--f", "const_one", "--alphas", "0,1", "--basename", "nb")
    assert code == EXIT_PASS
    rows = [ln.split(",") for ln in (tmp_path / "nb.csv").read_text()
            .splitlines() if ln and not ln.startswith("# ")][1:]
    values = {float(alpha): float(norm) for _, alpha, norm in rows}
    assert values[0.0] == pytest.approx(1.0, rel=1e-12)
    assert values[1.0] == pytest.approx(math.sqrt(0.4), rel=1e-12)


def test_norms_divergent_cell_is_named(tmp_path):
    # the half-space Poisson norm at (p, alpha) = (2, 1) diverges: the
    # table carries DIV rather than a number, and that is a pass
    code = run(tmp_path, "norms", "--domain", "halfspace", "--n", "1",
               "--f", "hs_poisson", "--p", "2", "--alphas", "1",
               "--basename", "nh")
    assert code == EXIT_PASS
    assert "DIV" in (tmp_path / "nh.csv").read_text()


def test_norms_rejects_halfspace_mixed(tmp_path):
    assert run(tmp_path, "norms", "--domain", "halfspace", "--n", "1",
               "--f", "hs_poisson", "--q", "1.5") == EXIT_USAGE


# ---------------------------------------------------------------------------
# distance


def test_distance_sweep_with_plots(tmp_path):
    code = run(tmp_path, "distance", "--domain", "ball", "--f", "solid_k2",
               "--n", "3", "--alpha", "1", "--beta", "2.0",
               "--skip-decomposition", "--plots", "--basename", "d")
    assert code == EXIT_PASS
    payload = json.loads((tmp_path / "d.json").read_text())
    entry = payload["report"]["sweep"][0]
    assert entry["bracket"]["resolved"] is True
    assert entry["bracket"]["lower"] == 0.0
    csv_lines = (tmp_path / "d.csv").read_text().splitlines()
    data = [ln for ln in csv_lines if ln and not ln.startswith("# ")]
    assert data[0].startswith("kernel_param,eps,classification")
    assert len(data) > 1
    dats = sorted(tmp_path.glob("d_k*.dat"))
    assert dats, "expected gnuplot profiles"
    body = dats[0].read_text().splitlines()
    rows = [ln for ln in body if ln and not ln.startswith("#")]
    assert rows and all(len(ln.split()) == 2 for ln in rows)


def _report_with_repro(domain, repro_error):
    """A resolved one-entry sweep whose only defect is ``repro_error``."""
    cuts = np.arange(1.0, 6.0)
    profile = DivergenceProfile(cuts, 1.0 - 2.0 ** -cuts, -1.0, FINITE)
    entry = SweepEntry(
        2.0, np.array([0.1]), (profile,), S2Bracket(0.0, 0.1, True, ()),
        0.05, (0.2,), (0.2,), (2.0,), (None,), repro_error, True, ())
    return DistanceReport("solid_k2", domain, 3, 2.0, None, 1.0, 1.5, 0.4,
                          (entry,), ())


@pytest.mark.parametrize("domain, label, repro_error, expected", [
    ("ball", "solid_k2", 5e-5, EXIT_PASS),
    ("ball", "solid_k2", 0.0593, EXIT_INCONCLUSIVE),
    ("ball", "solid_k2", math.nan, EXIT_PASS),
    ("halfspace", "qm_w0", 8e-4, EXIT_PASS),
    ("halfspace", "qm_w0", 2e-3, EXIT_INCONCLUSIVE),
])
def test_distance_flags_bad_reconstruction(tmp_path, monkeypatch, capsys,
                                           domain, label, repro_error,
                                           expected):
    # the threshold is the representation check's: 1e-4 on the ball,
    # 1e-3 on the half-space; nan means the decomposition was skipped
    monkeypatch.setattr(cli, "equivalence_experiment",
                        lambda *a, **k: _report_with_repro(domain,
                                                           repro_error))
    code = run(tmp_path, "distance", "--domain", domain, "--f", label,
               "--basename", "d")
    assert code == expected
    notes = json.loads((tmp_path / "d.json").read_text())["report"]["notes"]
    if expected == EXIT_INCONCLUSIVE:
        assert "exceeds the representation threshold" in capsys.readouterr().err
        assert len(notes) == 1 and notes[0].startswith("INCONCLUSIVE")
    else:
        assert notes == []


# ---------------------------------------------------------------------------
# determinism


def test_csv_outputs_are_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for out in (a, b):
        assert main(["verify", "--lemma", "qm", "--n", "1", "--delta", "0",
                     "--gamma", "3", "--m", "0", "--out", str(out),
                     "--basename", "v"]) == EXIT_PASS
        assert main(["whitney", "--domain", "halfspace", "--n", "1",
                     "--lateral", "0,1", "--heights", "0.25,1.0",
                     "--field", "hs_poisson", "--out", str(out),
                     "--basename", "w"]) == EXIT_PASS
        assert main(["norms", "--domain", "ball", "--n", "2",
                     "--f", "solid_k1", "--alphas", "0,1", "--out", str(out),
                     "--basename", "n"]) == EXIT_PASS
    for name in ("v.csv", "w_cubes.csv", "w_summary.csv", "n.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
