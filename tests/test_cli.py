import json
import math

import numpy as np
import pytest

from firingmap import IFSystem, parse_signal, perturbation_harness
from firingmap import cli
from firingmap.cli import main
from firingmap.firing import Orbit

from helpers import count_rotation_spikes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_translation(capsys):
    c = 1.0 / (1.0 - math.exp(-3))
    code, out, _ = run_cli(
        capsys, "simulate", "--sigma", "1", "--signal", f"const:{c!r}", "--n", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,time,isi"
    times = [float(row.split(",")[1]) for row in lines[1:]]
    assert times == pytest.approx([3.0, 6.0, 9.0, 12.0], abs=1e-9)
    isis = [float(row.split(",")[2]) for row in lines[1:]]
    assert isis == pytest.approx([3.0] * 4, abs=1e-9)


def test_simulate_half_on_half_off(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--sigma", "0", "--signal", "pwc:0,2;0.5,0", "--n", "2"
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == [0.5, 1.5]


def test_simulate_rows_match_per_value_formatting(capsys, monkeypatch):
    # the rows are formatted in one pass; each field must read as _fmt does
    times = np.array([-0.0, 5e-324, 1e300, 1e300, 0.1 + 2.0 / 3.0, 123456.78901234567])
    monkeypatch.setattr(cli, "iterate", lambda system, t0, n: Orbit(t0, times))
    code, out, _ = run_cli(capsys, "simulate", "--sigma", "1", "--signal", "const:2",
                           "--n", str(times.size))
    assert code == 0
    isis = np.diff(times, prepend=0.0)
    want = ["index,time,isi"] + [f"{i},{cli._fmt(t)},{cli._fmt(d)}"
                                 for i, (t, d) in enumerate(zip(times, isis), start=1)]
    assert out == "\n".join(want) + "\n"
    assert "1,-0,-0" in want and "2,4.94065645841e-324,4.94065645841e-324" in want


def test_simulate_ill_posed_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--sigma", "1", "--signal", "const:1", "--n", "2"
    )
    assert code == 2
    assert "f(t) - sigma" in err


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "rotation")[0] == 1  # no signal
    assert run_cli(capsys, "scan", "--signal", "const:2")[0] == 1  # no grid
    assert run_cli(capsys, "simulate", "--signal", "huh:1")[0] == 1
    assert run_cli(capsys, "bogus")[0] == 1  # unknown subcommand


def test_rotation_pi_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "rotation", "--sigma", "0", "--signal", "trig:2;1,1,0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"] == 0.5
    assert payload["locked"] is True
    assert (payload["p"], payload["q"]) == (1, 2)


def test_rotation_locked_cosine(capsys):
    code, out, _ = run_cli(
        capsys, "rotation", "--sigma", "1", "--signal", "trig:2;1,0.86,0",
        "--tol", "1e-5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["locked"] is True
    assert payload["status"] == "locked"
    assert (payload["p"], payload["q"]) == (7, 10)
    assert payload["residual"] < 1e-8
    assert abs(payload["rho"] - 0.7) < 1e-4


def test_rotation_unlocked_constant(capsys):
    code, out, _ = run_cli(
        capsys, "rotation", "--sigma", "1", "--signal", "const:2", "--tol", "1e-4"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["locked"] is False
    assert abs(payload["rho"] - 0.6931) < 1e-3


def test_rotation_json_status_and_margin(capsys):
    code, out, _ = run_cli(
        capsys, "rotation", "--sigma", "1", "--signal", "const:2", "--tol", "1e-4"
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "rho", "error_bound", "locked", "p", "q", "residual", "status", "margin"
    ]
    # the certified interval holds log 2 and is no wider than asked
    assert payload["error_bound"] <= 1e-4
    assert abs(payload["rho"] - math.log(2.0)) <= payload["error_bound"]
    assert payload["status"] == "unlocked"
    assert 0 < payload["margin"] <= payload["residual"]


@pytest.mark.parametrize("signal, rho", [
    ("trig:2;1,0.86,0", 0.7),  # locked 7/10, witnessed by a sign change: rho exact
    ("trig:2;1,0.5,0", None),  # quasi-periodic
])
def test_rotation_default_tol_spends_few_spikes(capsys, monkeypatch, signal, rho):
    spikes = count_rotation_spikes(monkeypatch)
    code, out, _ = run_cli(capsys, "rotation", "--sigma", "1", "--signal", signal)
    assert code == 0
    payload = json.loads(out)
    assert sum(spikes) <= 16_384
    assert payload["error_bound"] <= 1e-6
    if rho is not None:
        assert payload["rho"] == rho and payload["error_bound"] == 0.0


def test_rotation_spikes_capped_by_tol(capsys, monkeypatch):
    # a translation by 3: Phi^1 - Id - 3 vanishes to rounding, so no mediant
    # past 3/1 can be placed and no sign change proves the lock; the orbit
    # doubles to the cap, whose 1/n interval gives the bound
    spikes = count_rotation_spikes(monkeypatch)
    c = 1.0 / (1.0 - math.exp(-3))
    code, out, _ = run_cli(capsys, "rotation", "--sigma", "1", "--signal", f"const:{c!r}",
                           "--tol", "3e-4")
    assert code == 0
    payload = json.loads(out)
    assert sum(spikes) == math.ceil(1.0 / 3e-4)
    assert payload["status"] == "locked" and (payload["p"], payload["q"]) == (3, 1)
    assert 0.0 < payload["error_bound"] <= 3e-4
    assert abs(payload["rho"] - 3.0) <= payload["error_bound"]


def test_scan_rows_and_error_column(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys, "scan", "--sigma", "1", "--signal", "trig:2;1,PARAM,0",
        "--param-grid", "0:0.9:0.1", "--n", "2000", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "param,rho,error_bound,locked,p,q,residual,error"
    assert len(lines) == 11  # header + 10 rows
    rows = [ln.split(",") for ln in lines[1:]]
    assert all(row[-1] == "" for row in rows)  # all validate, no errors
    rhos = [float(r[1]) for r in rows]
    assert rhos[0] == pytest.approx(math.log(2.0), abs=1e-3)
    assert min(abs(r - 0.7) for r in rhos) < 5e-3


def test_scan_error_rows_do_not_stop_scan(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--sigma", "1", "--signal", "trig:2;1,PARAM,0",
        "--param-grid", "0.8,1.0,0.6", "--n", "500",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[2].split(",")[1] == ""  # the beta=0.5 row failed
    assert "sigma" in lines[2]
    assert lines[3].split(",")[1] != ""


def test_scan_empty_grid(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--sigma", "1", "--signal", "trig:2;1,PARAM,0",
        "--param-grid", "", "--n", "100",
    )
    assert code == 0
    assert out.strip() == "param,rho,error_bound,locked,p,q,residual,error"


def test_isi_atom_single_bin(capsys, tmp_path):
    out_path = tmp_path / "hist.csv"
    code, out, _ = run_cli(
        capsys, "isi", "--sigma", "1", "--signal", "const:2", "--n", "10000",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "bin_left,bin_right,count,frequency"
    counts = [int(r.split(",")[2]) for r in lines[1:]]
    assert sum(1 for c in counts if c > 0) == 1
    assert sum(counts) == 10000
    summary = json.loads(out)
    assert summary["mean"] == pytest.approx(math.log(2.0), abs=1e-6)
    assert summary["clusters"] == 1
    assert summary["classification"]["kind"] == "periodic"


def test_isi_locked_ten_clusters(capsys, tmp_path):
    out_path = tmp_path / "hist.csv"
    code, out, _ = run_cli(
        capsys, "isi", "--sigma", "1", "--signal", "trig:2;1,0.86,0",
        "--n", "6000", "--q", "10", "--out", str(out_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["classification"]["kind"] in (
        "periodic", "asymptotically-periodic"
    )
    assert summary["classification"]["period"] == 10


def test_isi_requires_out(capsys):
    assert run_cli(capsys, "isi", "--sigma", "1", "--signal", "const:2")[0] == 1


def test_density_csv(capsys, tmp_path):
    a0 = (3 + math.sqrt(5)) / 2
    out_path = tmp_path / "density.csv"
    code, _, _ = run_cli(
        capsys, "density", "--sigma", "0", "--signal", f"trig:{a0!r};1,0.5,0",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "y,delta"
    ys = [float(r.split(",")[0]) for r in lines[1:]]
    deltas = [float(r.split(",")[1]) for r in lines[1:]]
    assert all(d >= 0 for d in deltas)
    assert ys == sorted(ys)


def test_density_rational_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "density", "--sigma", "0", "--signal", "trig:2;1,0.5,0"
    )
    assert code == 2
    assert "rational" in err


def test_density_needs_pi(capsys):
    code, _, _ = run_cli(
        capsys, "density", "--sigma", "1", "--signal", "trig:2;1,0.5,0"
    )
    assert code == 1


def test_compare_identity(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--sigma", "1", "--signal", "trig:2;1,0.5,0",
        "--signal2", "trig:2;1,0.5,0", "--n", "2000",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"sup_phi_dev", "sup_dphi_dev", "d_F_isi"}
    assert payload["sup_phi_dev"] == 0.0
    assert payload["d_F_isi"] == 0.0


def test_compare_step_drives(capsys):
    # a breakpoint moved by 0.01: the maps have no slope where an input jumps
    code, out, _ = run_cli(
        capsys, "compare", "--sigma", "1", "--signal", "pwc:0,3;0.5,1.6",
        "--signal2", "pwc:0,3;0.51,1.6", "--n", "2000",
    )
    assert code == 0
    payload = json.loads(out)
    assert 0 < payload["sup_phi_dev"] < 0.1
    assert math.isfinite(payload["sup_dphi_dev"])
    assert payload["d_F_isi"] > 0


def test_compare_needs_a_strict_base(capsys):
    # a nonnegative perfect integrator as base: a usage error, not a traceback
    code, out, err = run_cli(
        capsys, "compare", "--sigma", "0", "--signal", "trig:2;1,2,0",
        "--signal2", "trig:2;1,1.9,0",
    )
    assert code == 1 and not out
    assert err.startswith("firingmap: error:") and "strict regime" in err


def test_config_file_and_override(capsys, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[system]\nsigma = 1.0\nsignal = const:2\n\n[run]\nt0 = 0.0\nn = 3\n"
    )
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 4
    # flag overrides the file
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--n", "5")
    assert len(out.strip().splitlines()) == 6


def test_config_missing_file(capsys):
    assert run_cli(capsys, "simulate", "--config", "/nonexistent.ini")[0] == 1


@pytest.mark.parametrize("body, named", [
    # a removed key and a misspelt one used to run with the default q_max
    ("[tolerances]\ngrid_size = 7\nq_maxx = 3\n", ["[tolerances]", "'grid_size'"]),
    ("[tolerances]\nq_maxx = 3\n", ["[tolerances]", "'q_maxx'"]),
    ("[sytem]\nsigma = 1\n", ["unknown section [sytem]"]),
    ("[run]\nn = abc\n", ["[run] n = 'abc'", "int"]),
    ("[system]\nsigma = one\n", ["[system] sigma = 'one'", "float"]),
    # out-of-range values, which flags and the file share one check for
    ("[run]\nn = 0\n", ["n must be >= 1"]),
    ("[run]\nbins = 0\n", ["bins must be >= 1"]),
    ("[run]\nq = 0\n", ["q must be >= 1"]),
    ("[run]\neps = -1\n", ["eps must be > 0"]),
    ("[run]\nburn_in = -5\n", ["burn_in must be >= 0"]),
    ("[tolerances]\nq_max = 0\n", ["q_max must be >= 1"]),
    ("[tolerances]\nrho_tol = 0\n", ["rho_tol must be > 0"]),
    # below 2**-22 the orbit cap ceil(1/rho_tol) would exceed 4,194,304 spikes
    ("[tolerances]\nrho_tol = 1e-9\n", ["rho_tol must be >= 2**-22", "4,194,304 spikes"]),
    ("[tolerances]\nresidual_tol = -1e-8\n", ["residual_tol must be > 0"]),
    # a non-finite start crashed `rotation` with a traceback
    ("[run]\nt0 = inf\n", ["t0 must be finite, got inf"]),
    # a start this large read back the start time as every spike
    ("[run]\nt0 = 1e17\n", ["t0 must lie within |t0| <= 2**40, got 1e+17"]),
], ids=["unknown-keys", "misspelt-key", "unknown-section", "bad-int", "bad-float",
        "n-zero", "bins-zero", "q-zero", "eps-negative", "burn-in-negative", "q-max-zero",
        "rho-tol-zero", "rho-tol-below-floor", "residual-tol-negative", "t0-infinite",
        "t0-huge"])
def test_config_rejects_unknown_and_malformed_entries(capsys, tmp_path, body, named):
    cfg = tmp_path / "run.ini"
    cfg.write_text(body)
    code, out, err = run_cli(capsys, "rotation", "--sigma", "1", "--signal", "trig:2;1,0.86,0",
                             "--config", str(cfg))
    assert code == 1 and not out
    for text in named:
        assert text in err


@pytest.mark.parametrize("flag, value, named", [
    ("--n", "0", "n must be >= 1"),
    ("--bins", "0", "bins must be >= 1"),
    ("--q", "0", "q must be >= 1"),
    ("--eps", "-1", "eps must be > 0"),
    ("--burn-in", "-5", "burn_in must be >= 0"),
    ("--tol", "0", "rho_tol must be > 0"),
    ("--tol", "1e-9", "rho_tol must be >= 2**-22, which caps the orbit at 4,194,304 spikes"),
    ("--t0", "inf", "t0 must be finite, got inf"),
    ("--t0", "nan", "t0 must be finite, got nan"),
    ("--t0", "-100000000000000000", "t0 must lie within |t0| <= 2**40, got -1e+17"),
])
def test_out_of_range_flags_are_usage_errors(capsys, tmp_path, flag, value, named):
    out_csv = tmp_path / "h.csv"
    code, out, err = run_cli(capsys, "isi", "--sigma", "1", "--signal", "trig:2;1,0.5,0",
                             "--n", "50", "--out", str(out_csv), flag, value)
    assert code == 1 and not out and named in err
    assert not out_csv.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_isi_needs_two_spikes(capsys, tmp_path, source):
    out_csv, cfg = tmp_path / "h.csv", tmp_path / "run.ini"
    cfg.write_text("[run]\nn = 1\n")
    n_args = ["--n", "1"] if source == "flag" else ["--config", str(cfg)]
    code, out, err = run_cli(capsys, "isi", "--sigma", "1", "--signal", "trig:2;1,0.5,0",
                             "--out", str(out_csv), *n_args)
    assert code == 1 and not out
    assert "n >= 2" in err and "got 1" in err
    assert not out_csv.exists()


def test_determinism(capsys, tmp_path):
    args = ["simulate", "--sigma", "1", "--signal", "trig:2;1,0.5,0", "--n", "500"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_twelve_significant_digits(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--sigma", "1", "--signal", "const:2", "--n", "1"
    )
    row = out.strip().splitlines()[1]
    time_str = row.split(",")[1]
    assert time_str == f"{math.log(2.0):.12g}"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_compare_starts_the_orbits_at_t0(capsys, tmp_path, source):
    base = IFSystem(1.0, parse_signal("trig:2;1,0.5,0"))
    perturbed = IFSystem(1.0, parse_signal("trig:2;1,0.54,0"))
    cfg = tmp_path / "cmp.ini"
    cfg.write_text("[run]\nt0 = 0.37\n")
    start = ["--t0", "0.37"] if source == "flag" else ["--config", str(cfg)]
    code, out, _ = run_cli(capsys, "compare", "--sigma", "1", "--signal", "trig:2;1,0.5,0",
                           "--signal2", "trig:2;1,0.54,0", "--n", "3000", *start)
    assert code == 0
    want = perturbation_harness(base, perturbed, orbit_len=3000, t0=0.37).d_f_isi
    assert json.loads(out)["d_F_isi"] == float(f"{want:.12g}")
    assert want != perturbation_harness(base, perturbed, orbit_len=3000).d_f_isi


def test_compare_with_config_perturbed_section(capsys, tmp_path):
    cfg = tmp_path / "cmp.ini"
    cfg.write_text(
        "[system]\nsigma = 1.0\nsignal = trig:2;1,0.5,0\n\n"
        "[perturbed]\nsignal = trig:2;1,0.54,0\n\n"
        "[run]\nn = 3000\n"
    )
    code, out, _ = run_cli(capsys, "compare", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["sup_phi_dev"] > 0
    assert payload["d_F_isi"] > 0


def test_density_deterministic(capsys, tmp_path):
    args = [
        "density", "--sigma", "0",
        "--signal", f"trig:{(3 + math.sqrt(5)) / 2!r};1,0.5,0",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_isi_half_on_half_off_histogram(capsys, tmp_path):
    out_path = tmp_path / "hist.csv"
    code, out, _ = run_cli(
        capsys, "isi", "--sigma", "0", "--signal", "pwc:0,2;0.5,0",
        "--n", "1200", "--out", str(out_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["range"] == [0.5, 1.0]
    assert summary["clusters"] == 2
