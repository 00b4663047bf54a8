"""Command-line surface: schemas, determinism, exit codes."""

import csv
import io
import json

import numpy as np
import pytest

from triform import identity_battery, normalized_decay, spherical_square
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


def test_closed_form_rows_equal_the_library_values(tmp_path):
    # one closed_form_log per row gives the same bits as the two library
    # calls that each evaluate it again
    code, text = run_cli(["closed-form", "--cube", "0,1,4", "--triples",
                          "0.3+0j,0,2;0,0,466", "--format", "json"], tmp_path)
    assert code == 0
    rows = json.loads(text)["rows"]
    assert len(rows) == 29
    for row in rows:
        lam = [complex(row[k]) for k in ("l1", "l2", "l3")]
        assert row["square"] == spherical_square(*lam)
        if abs(lam[2]) >= 1.0:
            assert row["normalized"] == normalized_decay(*lam)
        else:
            assert "normalized" not in row


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
    # only gaussian-check draws samples, so only it takes and echoes a seed
    assert meta["seed"] is None
    assert main(["closed-form", "--triples", "0,0,0", "--seed", "1"]) == 2
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
    assert json.loads(text)["meta"]["seed"] == 11
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


def test_decay_scan_refuses_a_ladder_without_plateau(capsys):
    # Re(tau + tau') = 0.3: the rows fall like |lam|^-0.3, with no constant
    # to extrapolate; one rung is still a plain table
    params = ["decay-scan", "--tau", "0.3+1j", "--tau-prime", "0.2"]
    code = main(params + ["--ladder", "100,200,400,800"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Re(tau + tau')" in err
    assert main(params + ["--ladder", "100"]) == 0
    assert "extrapolated_constant" not in capsys.readouterr().out


@pytest.mark.parametrize("ladder", ["25,50,-100", "100,100,100", "400,200,100",
                                    "100,300,900", "-100", "0", "inf", "nan"])
def test_decay_scan_refuses_a_ladder_that_is_not_a_doubling(ladder, capsys):
    code = main(["decay-scan", "--ladder", ladder])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "doubling ladder" in err


def test_sobolev_trace_l0_is_plain_trace(tmp_path):
    code, text = run_cli(["sobolev-trace", "--l", "0", "--t-ladder", "2",
                          "--max-mode", "6", "--k-modes", "4"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    rho = float(rows[0]["rho"])
    from triform import induced_form
    tr = float(np.real(np.trace(induced_form(2j, 0.0, 0.0, 6, 4))))
    assert abs(rho - tr) <= 1e-8 * tr


def test_sobolev_trace_check_doubling_doubles_n_and_k(tmp_path):
    code, text = run_cli(["sobolev-trace", "--t-ladder", "2", "--max-mode", "6",
                          "--k-modes", "4", "--check-doubling"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    from triform import sobolev_trace, sobolev_trace_estimate
    est = sobolev_trace_estimate(2, 2.0, 2j, (0j, 0j), 6, 4)
    assert float(rows[0]["rho"]) == est.value == sobolev_trace(
        2, 2.0, 2j, (0j, 0j), 12, 8)
    assert float(rows[0]["rho_scaled"]) == est.value * 2.0 ** 4
    assert float(rows[0]["error_bound"]) == est.error_bound
    assert rows[0]["error"] == ""
    assert "rho_doubled_N" not in rows[0] and "rho_doubled_K" not in rows[0]


def test_sobolev_trace_non_convergent_rung_is_a_flagged_row(tmp_path):
    # at (N, K) = (2, 2) the joint doubling moves rho by 11%
    code, text = run_cli(["sobolev-trace", "--t-ladder", "2,4", "--max-mode",
                          "2", "--k-modes", "2", "--check-doubling"], tmp_path)
    assert code == 1
    _, rows = parse_csv(text)
    assert rows[0]["error"] == "non-convergent"
    assert float(rows[0]["rho"]) > 0 and float(rows[0]["error_bound"]) > 0
    assert float(rows[0]["rho_scaled"]) == float(rows[0]["rho"]) * 2.0 ** 4
    assert len(rows) == 2


def test_sobolev_trace_json_rows_without_check_doubling(tmp_path):
    code, text = run_cli(["sobolev-trace", "--t-ladder", "2", "--max-mode", "6",
                          "--k-modes", "4", "--format", "json"], tmp_path)
    assert code == 0
    assert sorted(json.loads(text)["rows"][0]) == ["T", "lam_im", "rho",
                                                   "rho_scaled"]


def test_quadrature_check_non_convergent_row_keeps_its_numbers(tmp_path):
    code, text = run_cli(["quadrature-check", "--triples", "0,1,4",
                          "--quad-levels", "2", "--target", "1e-15"], tmp_path)
    assert code == 1
    meta, rows = parse_csv(text)
    row = rows[0]
    assert row["error"] == "non-convergent" and row["rel_deviation"] == ""
    assert float(row["quad_re"]) != 0 and float(row["error_bound"]) > 0
    assert int(row["cost"]) > 0 and row["closed_re"] != ""
    assert meta["max_rel_deviation"] == 0.0


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
