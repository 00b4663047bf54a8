"""Command-line surface: schemas, determinism, exit codes."""

import csv
import io
import json

import numpy as np
import pytest

from triform import identity_battery, normalized_decay
from triform.cli import main


def run_cli(args, tmp_path, name="out.txt"):
    path = tmp_path / name
    code = main(args + ["--out", str(path)])
    return code, path.read_text(encoding="utf-8")


def parse_csv(text):
    meta = {}
    lines = text.splitlines()
    body = []
    for ln in lines:
        if ln.startswith("# "):
            key, val = ln[2:].split("=", 1)
            meta[key] = json.loads(val)
        else:
            body.append(ln)
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return meta, rows


def test_empty_grid_ok(tmp_path):
    code, text = run_cli(["closed-form", "--triples", ""], tmp_path)
    assert code == 0
    meta, rows = parse_csv(text)
    assert rows == []
    assert meta["schema"] == "triform.table.v1"


def test_closed_form_origin_row(tmp_path):
    code, text = run_cli(["closed-form", "--triples", "0,0,0"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert len(rows) == 1
    assert abs(float(rows[0]["abs_value"]) - 5.5728157187) < 1e-6


def test_pole_row_flags_exit_code(tmp_path):
    code, text = run_cli(
        ["closed-form", "--triples", "0,0,0;0.5+0j,0.5+0j,0+0j"], tmp_path)
    assert code == 1
    _, rows = parse_csv(text)
    assert rows[0]["error"] == ""
    assert rows[1]["error"].startswith("pole:")


@pytest.mark.parametrize("l3", [460, 466, 500])
def test_closed_form_normalized_where_the_square_underflows(l3, tmp_path):
    # the raw square is subnormal at |l3| = 460 and 466 and exactly 0 at 500
    code, text = run_cli(["closed-form", "--triples", f"0,0,{l3}",
                          "--format", "json"], tmp_path)
    assert code == 0
    row = json.loads(text)["rows"][0]
    assert abs(row["normalized"] - normalized_decay(0, 0, 1j * l3)) <= 1e-12


def test_reproducible_byte_determinism(tmp_path):
    args = ["closed-form", "--cube", "0,1", "--reproducible"]
    _, a = run_cli(args, tmp_path, "a.txt")
    _, b = run_cli(args, tmp_path, "b.txt")
    assert a == b


def test_quadrature_check_reproducible_bytes(tmp_path):
    # the quadrature's node sets and summation order depend only on the
    # level and the parameters, so the whole table repeats bit for bit
    args = ["quadrature-check", "--cube", "0,1,2,4", "--reproducible",
            "--format", "json"]
    _, a = run_cli(args, tmp_path, "a.txt")
    _, b = run_cli(args, tmp_path, "b.txt")
    assert len(json.loads(a)["rows"]) == 64
    assert a == b


def test_json_format_meta(tmp_path):
    code, text = run_cli(["closed-form", "--triples", "0,0,0",
                          "--format", "json", "--reproducible"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    meta = payload["meta"]
    for key in ("schema", "command", "config", "seed", "version"):
        assert key in meta
    assert len(payload["rows"]) == 1


def test_quadrature_check_single_point(tmp_path):
    code, text = run_cli(["quadrature-check", "--triples", "0,0,0",
                          "--target", "1e-6"], tmp_path)
    assert code == 0
    meta, rows = parse_csv(text)
    assert float(rows[0]["rel_deviation"]) <= 1e-4
    assert meta["max_rel_deviation"] <= 1e-4
    # consistency with the closed-form command
    _, text2 = run_cli(["closed-form", "--triples", "0,0,0"], tmp_path, "c.txt")
    _, rows2 = parse_csv(text2)
    assert abs(float(rows[0]["closed_re"]) - float(rows2[0]["abs_value"])) < 1e-9


def test_gaussian_check(tmp_path):
    code, text = run_cli(["gaussian-check", "--samples", "30000",
                          "--seed", "20240901"], tmp_path)
    assert code == 0
    meta, rows = parse_csv(text)
    assert meta["max_zscore"] <= 4.0
    names = {r["identity"] for r in rows}
    assert names == {"radius-moment", "linear-moment", "det-moment",
                     "homogeneous-reduction", "minor-pullback",
                     "kernel-gaussian"}


def test_gaussian_check_seed_determinism(tmp_path):
    args = ["gaussian-check", "--samples", "5000", "--reproducible"]
    _, a = run_cli(args, tmp_path, "a.txt")
    _, b = run_cli(args, tmp_path, "b.txt")
    assert a == b


def test_gaussian_check_formats_the_battery(tmp_path):
    code, text = run_cli(["gaussian-check", "--samples", "3000", "--seed", "11",
                          "--format", "json"], tmp_path)
    rows = json.loads(text)["rows"]
    battery = identity_battery(3000, 11)
    assert len(rows) == len(battery) == 35
    for row, (identity, params, lhs, rhs) in zip(rows, battery):
        assert (row["identity"], row["params"]) == (identity, params)
        assert complex(row["mc_re"], row["mc_im"]) == lhs.value
        assert complex(row["closed_re"], row["closed_im"]) == rhs.value


def test_gaussian_check_tiny_samples_well_formed(tmp_path):
    # wide error bars are fine; the table must still be complete
    code, text = run_cli(["gaussian-check", "--samples", "100"], tmp_path)
    _, rows = parse_csv(text)
    assert len(rows) == 35
    assert all(r["mc_3sigma"] != "" for r in rows)


def test_decay_scan_single_rung(tmp_path):
    code, text = run_cli(["decay-scan", "--ladder", "50"], tmp_path)
    assert code == 0
    meta, rows = parse_csv(text)
    assert len(rows) == 1
    assert "extrapolated_constant" not in meta


def test_decay_scan_symmetry(tmp_path):
    a = run_cli(["decay-scan", "--tau", "1", "--tau-prime", "2",
                 "--ladder", "25,50", "--reproducible"], tmp_path, "a.txt")[1]
    b = run_cli(["decay-scan", "--tau", "2", "--tau-prime", "1",
                 "--ladder", "25,50", "--reproducible"], tmp_path, "b.txt")[1]
    ma, ra = parse_csv(a)
    mb, rb = parse_csv(b)
    assert [r["normalized"] for r in ra] == [r["normalized"] for r in rb]


def test_sobolev_trace_l0_is_plain_trace(tmp_path):
    code, text = run_cli(["sobolev-trace", "--l", "0", "--t-ladder", "2",
                          "--max-mode", "6", "--k-modes", "4"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    rho = float(rows[0]["rho"])
    from triform import induced_form
    tr = float(np.real(np.trace(induced_form(2j, 0.0, 0.0, 6, 4).matrix)))
    assert abs(rho - tr) <= 1e-8 * tr


def test_sobolev_trace_check_doubling_doubles_n_and_k(tmp_path):
    code, text = run_cli(["sobolev-trace", "--t-ladder", "2", "--max-mode", "6",
                          "--k-modes", "4", "--check-doubling"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    rho = float(rows[0]["rho"])
    from triform import sobolev_trace
    for col, change, N, K in (("rho_doubled_N", "doubling_rel_change", 12, 4),
                              ("rho_doubled_K", "k_doubling_rel_change", 6, 8)):
        ref = sobolev_trace(2, 2.0, 2j, (0j, 0j), N, K)
        assert float(rows[0][col]) == ref
        assert float(rows[0][change]) == abs(ref - rho) / rho


@pytest.mark.parametrize("T", ["nan", "inf", "1e100"])
def test_sobolev_trace_non_finite_t_is_an_error(T, capsys):
    code = main(["sobolev-trace", "--l", "2", "--t-ladder", T,
                 "--max-mode", "8", "--k-modes", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_sobolev_trace_negative_k_modes_is_an_error(capsys):
    code = main(["sobolev-trace", "--k-modes", "-2", "--max-mode", "8"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "K_modes" in err


def test_sobolev_trace_odd_k_modes_is_an_error(capsys):
    code = main(["sobolev-trace", "--k-modes", "3", "--max-mode", "8"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and "K_modes" in err


def test_quadrature_levels_above_maximum_are_an_error(capsys):
    # 30 levels would reach level 32; refused before any quadrature runs
    code = main(["quadrature-check", "--quad-levels", "30", "--target", "1e-3",
                 "--triples", "0,0,0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "MAX_QUADRATURE_LEVEL" in err


def test_bad_config_exit_code():
    assert main(["quadrature-check", "--quad-levels", "0",
                 "--triples", "0,0,0"]) == 2
