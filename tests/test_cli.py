import json
import math

import numpy as np
import pytest

from supergauss import QuadratureSpec, cache
from supergauss.cache import (
    cache_dir,
    cached_zeros,
    format_zero_cache,
    parse_zero_cache,
    read_zero_cache,
    write_zero_cache,
    zero_cache_path,
)
from supergauss.cli import build_parser, main
from supergauss.errors import EmitError
from supergauss.svgplot import Dataset, emit_svg
from supergauss.zeros import SCAN_VERSION, ZeroRecord


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_csv(capsys):
    code, out = run_cli(capsys, "eval", "--n", "1", "--w", "0", "--sigma", "0")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "re,im,err_estimate,l_squared"
    re = float(row.split(",")[0])
    assert re == pytest.approx(math.sqrt(math.pi), abs=1e-12)
    assert float(row.split(",")[1]) == 0.0


def test_eval_json(capsys):
    code, out = run_cli(capsys, "eval", "--n", "2", "--w", "1", "--sigma", "0.5",
                        "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["l_squared"] == pytest.approx(obj["re"] ** 2 + obj["im"] ** 2)


def test_eval_numerical_failure_exit_code(capsys):
    code, _ = run_cli(capsys, "eval", "--n", "1", "--w", "0", "--sigma", "60")
    assert code == 3


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--n", "1", "--w", "0"])  # missing --sigma
    assert exc.value.code == 2


def test_parser_reused_across_calls(capsys, monkeypatch):
    # one parser serves every call of a process: a rejected call leaves
    # nothing behind, and a later call's omitted flags take their defaults
    from supergauss import cli

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        assert run_cli(capsys, "eval", "--n", "7", "--w", "0", "--sigma", "0")[0] == 2
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--n", "2", "--w", "0", "--sigma", "0", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out = run_cli(capsys, "eval", "--n", "1", "--w", "0", "--sigma", "0",
                            "--format", "json")
        assert code == 0 and json.loads(out)["re"] == pytest.approx(math.sqrt(math.pi))
        code, out = run_cli(capsys, "eval", "--n", "1", "--w", "0", "--sigma", "0")
        assert code == 0 and out.startswith("re,im,err_estimate,l_squared\n")
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_zeros_empty_for_gaussian(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("POLYA_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "zeros", "--n", "1", "--wmax", "20")
    assert code == 0
    assert out.strip() == "n,index,alpha,f_prime,residual"


def test_zeros_cache_roundtrip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("POLYA_CACHE_DIR", str(tmp_path))
    out_file = tmp_path / "zeros.csv"
    code, _ = run_cli(capsys, "zeros", "--n", "2", "--wmax", "8", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    records = parse_zero_cache(text)
    assert len(records) == 2
    assert format_zero_cache(records) == text           # emit -> parse -> emit
    # warm rerun hits the cache and is byte-identical
    code, _ = run_cli(capsys, "zeros", "--n", "2", "--wmax", "8", "--out", str(out_file))
    assert out_file.read_text() == text
    assert zero_cache_path(2, 8.0, 1e-10).exists()


def test_zeros_table_independent_of_earlier_narrower_scan(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("POLYA_CACHE_DIR", str(tmp_path / "fresh"))
    _, fresh = run_cli(capsys, "zeros", "--n", "2", "--wmax", "12")
    monkeypatch.setenv("POLYA_CACHE_DIR", str(tmp_path / "used"))
    run_cli(capsys, "zeros", "--n", "2", "--wmax", "8")
    code, out = run_cli(capsys, "zeros", "--n", "2", "--wmax", "12")
    assert code == 0
    assert len(parse_zero_cache(fresh)) == 3
    assert out == fresh


def test_zeros_cold_and_warm_agree_past_last_zero(capsys, tmp_path, monkeypatch):
    # the scan grid's last bracket holds a zero just past w_max
    monkeypatch.setenv("POLYA_CACHE_DIR", str(tmp_path))
    argv = ("zeros", "--n", "2", "--wmax", "9.62585888628049")
    _, cold = run_cli(capsys, *argv)
    _, warm = run_cli(capsys, *argv)
    assert warm == cold
    assert len(parse_zero_cache(cold)) == 2


def test_cached_empty_table_is_read_not_rescanned(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYA_CACHE_DIR", str(tmp_path))
    q = QuadratureSpec(tol=1e-10)
    assert cached_zeros(1, 20.0, q) == []

    def no_rescan(*args):
        raise AssertionError("warm call rescanned")

    monkeypatch.setattr(cache, "scan_real_zeros", no_rescan)
    assert cached_zeros(1, 20.0, q) == []
    assert zero_cache_path(1, 20.0, 1e-10).exists()


def test_zeros_count_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("POLYA_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "zeros", "--n", "2", "--wmax", "12", "--count", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYA_CACHE_DIR", str(tmp_path / "alt"))
    assert cache_dir() == tmp_path / "alt"


def test_cache_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("alpha,beta\n1,2\n")
    with pytest.raises(ValueError):
        read_zero_cache(p)


def test_cache_write_read(tmp_path):
    recs = [ZeroRecord(n=2, index=1, alpha=3.25, f_prime=-0.3, residual=1e-12),
            ZeroRecord(n=2, index=2, alpha=6.5, f_prime=0.05, residual=2e-12)]
    path = tmp_path / "z.csv"
    write_zero_cache(path, recs)
    assert read_zero_cache(path) == recs


def test_acoeff_csv(capsys):
    code, out = run_cli(capsys, "acoeff", "--n", "1", "--m-range", "0..1",
                        "--w-grid", "0:1:1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,w,value,method,err"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(2 * math.pi, rel=1e-9)


def test_config_file_defaults_and_flag_wins(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# tolerances\ntol = 1e-6\nformat = json\n")
    code, out = run_cli(capsys, "eval", "--n", "1", "--w", "0", "--sigma", "0",
                        "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["re"] == pytest.approx(math.sqrt(math.pi), abs=1e-6)
    # explicit flag beats the config value
    code, out = run_cli(capsys, "eval", "--n", "1", "--w", "0", "--sigma", "0",
                        "--config", str(cfg), "--format", "csv")
    assert out.startswith("re,im")


def test_config_file_inline_form(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\n")
    code, out = run_cli(capsys, "eval", "--n", "1", "--w", "0", "--sigma", "0",
                        f"--config={cfg}")
    assert code == 0
    assert json.loads(out)["re"] == pytest.approx(math.sqrt(math.pi), abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["fieldlines", "--n", "2", "--window", "0:1,0:1", "--resolution", "1x5"],
    ["eval", "--n", "7", "--w", "0", "--sigma", "0"],
    ["eval", "--n", "2", "--w", "0", "--sigma", "0", "--tol", "-1"],
    ["eval", "--n", "2", "--w", "nan", "--sigma", "0"],
    ["orbit", "--n", "2", "--sigma", "1", "--v", "0", "--tmax", "1", "--dt", "0.1"],
    ["verify", "--tol", "1e-6"],
    ["zeros", "--n", "2", "--wmax", "inf"],
    ["zeros", "--n", "2", "--wmax", "8", "--count", "-1"],
    ["acoeff", "--n", "2", "--m-range", "0..2", "--w-grid", "0:inf:0.5"],
    ["acoeff", "--n", "2", "--m-range", "0..2", "--w-grid", "0:nan:0.5"],
    ["acoeff", "--n", "2", "--m-range", "0..2", "--w-grid", "0:1:nan"],
    ["acoeff", "--n", "2", "--m-range", "0..2", "--w-grid", "0:1:inf"],
    ["fieldlines", "--n", "2", "--window", "0:inf,0:1", "--resolution", "5x5"],
    ["fieldlines", "--n", "2", "--window", "0:nan,0:1", "--resolution", "5x5"],
    ["acoeff", "--n", "2", "--m-range", "0..2", "--w-grid", "1e300:1e300:1e-300"],
    ["acoeff", "--n", "2", "--m-range", "0..2", "--w-grid", "0:1e12:1e-3"],
])
def test_rejected_input_exit_code(capsys, argv):
    # a value the library rejects is an argument error: code 2, one line, no
    # traceback; a flag the command does not take is rejected by argparse
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        assert "error: unrecognized arguments: --tol 1e-6" in capsys.readouterr().err
        return
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("argument error: ") and err.count("\n") == 1


def test_fieldlines_csv_and_svg(capsys, tmp_path):
    out_csv = tmp_path / "lines.csv"
    out_svg = tmp_path / "lines.svg"
    code, _ = run_cli(capsys, "fieldlines", "--n", "1", "--which", "R",
                      "--window", "0.8:3,0.3:5", "--resolution", "40x60",
                      "--out", str(out_csv), "--svg", str(out_svg))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "line_id,which,sigma,w"
    assert all(row.split(",")[1] == "R" for row in lines[1:])
    assert out_svg.read_text().startswith("<svg")


def test_fieldlines_asymptote_rows_parse(capsys, tmp_path):
    out_csv = tmp_path / "lines.csv"
    code, _ = run_cli(capsys, "fieldlines", "--n", "2", "--which", "R",
                      "--window", "0.5:6,1:6", "--resolution", "30x40",
                      "--out", str(out_csv), "--asymptotes")
    assert code == 0
    text = out_csv.read_text()
    assert "np.float64" not in text
    rows = [r.split(",") for r in text.splitlines()[1:]]
    assert any(r[1] == "asymptote" for r in rows)
    for r in rows:
        float(r[2]), float(r[3])


def test_fieldline_rows_parse_and_match_points():
    from supergauss.cli import _fieldline_rows
    from supergauss.fieldlines import FieldLine

    vertices = np.array([[0.1, 1.0 / 3.0], [2.0 ** -40, 7.25], [1e300, -0.0]])
    lines = [FieldLine(which="R", vertices=vertices), FieldLine(which="I", vertices=vertices[:2])]
    rows, next_id = _fieldline_rows(lines, 4)
    assert next_id == 6 and len(rows) == 5
    parsed = [r.rstrip("\n").split(",") for r in rows]
    want = [(k, line.which, p) for k, line in enumerate(lines, 4) for p in line.points]
    for (k, which, sigma, w), (k_want, which_want, p) in zip(parsed, want):
        assert (int(k), which) == (k_want, which_want)
        assert (float(sigma), float(w)) == (p.sigma, p.w)


@pytest.mark.parametrize("n", [2, 3])
def test_acoeff_table_unchanged_by_memos(capsys, monkeypatch, n):
    # the truncation radius and the moment scale are pure functions:
    # remembering them changes no byte
    from supergauss import transform

    argv = ("acoeff", "--n", str(n), "--m-range", "0..4", "--w-grid", "0.5:2.5:0.5")
    memos = ("_radius", "_moment_scale")
    for name in memos:
        getattr(transform, name).cache_clear()
    _, with_memo = run_cli(capsys, *argv)
    for name in memos:
        assert getattr(transform, name).cache_info().hits > 0
        monkeypatch.setattr(transform, name, getattr(transform, name).__wrapped__)
    _, without = run_cli(capsys, *argv)
    assert len(with_memo.splitlines()) == 1 + 5 * 5
    assert with_memo == without


def test_zero_table_of_an_earlier_scan_version_is_ignored(tmp_path, monkeypatch):
    # a table written under a file name without the scan's version (what
    # the real-line scan wrote) is not read back
    monkeypatch.setenv("POLYA_CACHE_DIR", str(tmp_path))
    q = QuadratureSpec(tol=1e-10)
    stale = [ZeroRecord(n=2, index=1, alpha=3.5, f_prime=-0.36, residual=1e-10)]
    write_zero_cache(tmp_path / "zeros_n2_wmax8.0_tol1e-10.csv", stale)
    records = cached_zeros(2, 8.0, q)
    assert records != stale and len(records) == 2
    path = zero_cache_path(2, 8.0, 1e-10)
    assert path.name == f"zeros_v{SCAN_VERSION}_n2_wmax8.0_tol1e-10.csv"
    assert read_zero_cache(path) == records


def test_orbit_csv(capsys, tmp_path):
    out_csv = tmp_path / "orbit.csv"
    code, _ = run_cli(capsys, "orbit", "--n", "1", "--sigma", "1", "--v", "1",
                      "--tmax", "1", "--dt", "0.25", "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,w,R,I,J"
    assert len(lines) == 6
    j_values = [float(r.split(",")[4]) for r in lines[1:]]
    assert all(j > 0 for j in j_values)


def test_figures_deterministic_and_cache_independent(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("POLYA_CACHE_DIR", str(tmp_path / "cache_a"))
    code, _ = run_cli(capsys, "figures", "--fig", "2", "--out", str(tmp_path / "a"))
    assert code == 0
    monkeypatch.setenv("POLYA_CACHE_DIR", str(tmp_path / "cache_b"))
    code, _ = run_cli(capsys, "figures", "--fig", "2", "--out", str(tmp_path / "b"))
    assert code == 0
    for name in ("fig2_lines.csv", "fig2.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_emit_svg_empty_dataset():
    with pytest.raises(EmitError):
        emit_svg(Dataset(x_label="x", y_label="y"))


def test_emit_svg_deterministic():
    ds = Dataset(x_label="x", y_label="y", title="t")
    ds.add_polyline([(0, 0), (1, 2), (2, 1)], color="black")
    assert emit_svg(ds) == emit_svg(ds)


def test_verify_single_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "quadrature")
    assert code == 0
    assert "[PASS] C1" in out and "[PASS] C2" in out


def test_verify_lemma1_suite_green(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "lemma1")
    assert code == 0
    assert "FAIL" not in out


def test_acoeff_csv_reemit_is_byte_identical(capsys):
    code, out = run_cli(capsys, "acoeff", "--n", "2", "--m-range", "0..1",
                        "--w-grid", "0:2:1")
    assert code == 0
    lines = out.strip().splitlines()
    rebuilt = [lines[0]]
    for row in lines[1:]:
        n, m, w, value, method, err = row.split(",")
        rebuilt.append(f"{int(n)},{int(m)},{float(w)!r},{float(value)!r},"
                       f"{method},{float(err)!r}")
    assert "\n".join(rebuilt) == out.strip()
