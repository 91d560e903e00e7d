"""Command-line interface: CSV contracts, determinism, exit codes."""

import contextlib
import importlib
import inspect
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfel import cli, highgain
from qfel import validate as validation
from qfel.core import FelParams, first_maximum
from qfel.highgain import lmax_exact, lmax_ratio
from qfel.lowgain import gain_frequency


def _read_csv(path):
    """Return (meta line, header fields, column dict of float arrays)."""
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    columns = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        if name == "error":
            columns[name] = cells
        else:
            columns[name] = np.array([float(c) for c in cells])
    return lines[0], header, columns


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2") / "fig2.csv"
    assert cli.main(["fig2", "--out", str(out)]) == 0
    return _read_csv(out)


@pytest.fixture(scope="module")
def default_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "low.csv"
    assert cli.main(["sweep", "--out", str(out)]) == 0
    return _read_csv(out)


class TestFig2:
    def test_header_and_meta(self, default_run):
        meta, header, _ = default_run
        assert header == [
            "Omega_t",
            "dn_analytic_nu1",
            "dn_analytic_nu2",
            "dn_analytic_nu3",
            "dn_numeric_nu1",
            "dn_numeric_nu2",
            "dn_numeric_nu3",
        ]
        assert "subcommand=fig2" in meta
        assert "alpha=0.25" in meta

    def test_origin_row_is_exactly_zero(self, default_run):
        _, header, cols = default_run
        for name in header:
            assert cols[name][0] == 0.0

    def test_peak_gains_count_emitted_photons(self, default_run):
        # Each resonance tops out at nu photons per electron; the numeric
        # curves carry an O(alpha^2) ripple on top of the envelope.
        _, _, cols = default_run
        for nu in (1, 2, 3):
            assert cols[f"dn_analytic_nu{nu}"].max() == pytest.approx(nu, abs=1e-3)
            assert cols[f"dn_numeric_nu{nu}"].max() == pytest.approx(nu, abs=0.1)

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["fig2", "--end", "30", "--samples", "301"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFig3:
    def test_top_panel_structure(self, tmp_path):
        out = tmp_path / "top.csv"
        code = cli.main(
            ["fig3", "--panel", "top", "--electrons", "400", "--n0", "40", "--samples", "121", "--out", str(out)]
        )
        assert code == 0
        meta, header, cols = _read_csv(out)
        assert header == ["L_over_Lg", "n_analytic_order3", "n_analytic_order1", "n_numeric_third_order"]
        assert "panel=top" in meta
        for name in header[1:]:
            assert cols[name][0] == 40.0  # every route starts at the seed
            assert cols[name][5] > 40.0  # and grows from it
        # The third-order rescale slows the rise relative to first order.
        assert first_maximum(cols["L_over_Lg"], cols["n_analytic_order1"]).position < first_maximum(
            cols["L_over_Lg"], cols["n_analytic_order3"]
        ).position

    def test_bottom_panel_structure(self, tmp_path):
        out = tmp_path / "bottom.csv"
        code = cli.main(
            ["fig3", "--panel", "bottom", "--electrons", "400", "--n0", "40", "--samples", "121", "--out", str(out)]
        )
        assert code == 0
        _, header, cols = _read_csv(out)
        assert header == ["L_over_Lg", "n_analytic", "n_numeric_dicke_only", "n_numeric_full_second_order"]
        for name in header[1:]:
            assert cols[name][0] == 40.0
        # Small-system check of the closed-form ceiling: n0 + 2N.
        peak = first_maximum(cols["L_over_Lg"], cols["n_analytic"])
        assert peak.amplitude == pytest.approx(40.0 + 2 * 400, rel=1e-4)

    def test_panel_is_required(self, capsys):
        assert cli.main(["fig3"]) == 2
        assert "--panel" in capsys.readouterr().err

    def test_rejects_unseeded_field(self, capsys, tmp_path):
        code = cli.main(["fig3", "--panel", "top", "--n0", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "n0" in capsys.readouterr().err


class TestFig4:
    def test_growth_length_tradeoff(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert cli.main(["fig4", "--out", str(out)]) == 0
        _, header, cols = _read_csv(out)
        assert header == ["L_over_Lg", "n_first_resonance", "n_second_resonance"]
        n0, N = 1000.0, 10_000
        p1 = FelParams(alpha=0.25, nu=1, n0=n0, N=N, context="high")
        p2 = FelParams(alpha=0.25, nu=2, n0=n0, N=N, context="high")
        peak1 = first_maximum(cols["L_over_Lg"], cols["n_first_resonance"])
        peak2 = first_maximum(cols["L_over_Lg"], cols["n_second_resonance"])
        assert peak1.position == pytest.approx(lmax_exact(p1, 1), rel=0.01)
        assert peak2.position == pytest.approx(lmax_exact(p2, 2), rel=0.01)
        assert peak1.amplitude == pytest.approx(n0 + N, rel=1e-6)
        assert peak2.amplitude == pytest.approx(n0 + 2 * N, rel=1e-6)
        # The doubled yield costs an order of magnitude in length.
        assert peak2.position > 5 * peak1.position

    def test_small_seed_stays_between_seed_and_ceiling(self, tmp_path):
        # n0/N = 1e-10 puts k*k at 1 - 1e-10, where cn needs its period
        # reduction: unreduced, SciPy's series fills the column with NaN.
        out = tmp_path / "fig4.csv"
        assert cli.main(["fig4", "--n0", "1e-6", "--out", str(out)]) == 0
        n_first = _read_csv(out)[2]["n_first_resonance"]
        assert np.all(np.isfinite(n_first))
        assert np.all((n_first >= 1e-6) & (n_first <= 1e-6 + 10_000))


class TestRunnerDefaults:
    """A runner called from Python with only ``out`` set writes what the command does."""

    @pytest.mark.parametrize(
        "argv, kwargs",
        [
            (["fig2"], {}),
            (["fig4"], {}),
            (["fig3", "--panel", "top", "--electrons", "400"], {"panel": "top", "electrons": 400}),
        ],
    )
    def test_same_bytes_as_the_command(self, argv, kwargs, tmp_path, capsys):
        assert cli.main(argv + ["--out", str(tmp_path / "cli.csv")]) == 0
        getattr(cli, f"run_{argv[0]}")(**kwargs, out=tmp_path / "api.csv")
        assert (tmp_path / "api.csv").read_bytes() == (tmp_path / "cli.csv").read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("panel", ["top", "bottom"])
    def test_each_fig3_panel_names_its_own_output(self, panel, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # n0 = 1000 over N = 24 would break the top panel's phase factor.
        assert cli.run_fig3(panel=panel, n0=2.4, electrons=24) == Path(f"fig3_{panel}.csv")
        assert [path.name for path in tmp_path.iterdir()] == [f"fig3_{panel}.csv"]

    @pytest.mark.parametrize(
        "runner, kwargs, message",
        [
            ("run_fig3", {}, "fig3 needs --panel top or --panel bottom"),
            ("run_fig3", {"panel": "side"}, "panel must be 'top' or 'bottom', got 'side'"),
            ("run_sweep", {"regime": "sideways"}, "regime must be 'low' or 'high', got 'sideways'"),
            (
                "run_sweep",
                {"regime": "high", "variant": "effective"},
                "the high-gain sweep is closed-form only; --variant does not apply",
            ),
        ],
    )
    def test_a_bad_scenario_raises_value_error(self, runner, kwargs, message, tmp_path):
        with pytest.raises(ValueError) as info:
            getattr(cli, runner)(**kwargs, out=tmp_path / "x.csv")
        assert str(info.value) == message
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv, comment",
        [
            (
                ["sweep"],
                "# subcommand=sweep regime=low alpha=0.1,0.2,0.3 n0=0 resonance=1,2,3 electrons=1"
                " variant=full_hamiltonian end=auto samples=2001",
            ),
            (
                ["sweep", "--end", "3", "--samples", "50"],
                "# subcommand=sweep regime=low alpha=0.1,0.2,0.3 n0=0 resonance=1,2,3 electrons=1"
                " variant=full_hamiltonian end=3 samples=50",
            ),
            (
                ["sweep", "--regime", "high"],
                "# subcommand=sweep regime=high alpha=0.1,0.2,0.3 n0=1000 resonance=1,2 electrons=10000",
            ),
            (
                ["fig3", "--panel", "bottom", "--electrons", "1500"],
                "# subcommand=fig3 panel=bottom alpha=0.25 n0=1000 electrons=1500 end=45 samples=601",
            ),
        ],
    )
    def test_comment_line_records_the_resolved_scenario(self, argv, comment, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert out.read_text(encoding="ascii").splitlines()[0] == comment
        capsys.readouterr()


def test_flag_table_names_exactly_the_runner_parameters():
    # Each command's flags are its runner's parameters; ``_FLAGS`` converts
    # and documents them, so an entry no runner takes, or a parameter with no
    # entry, is a fault the parser alone would not show.
    parameters = {key for name in cli._COMMANDS for key in inspect.signature(getattr(cli, f"run_{name}")).parameters}
    assert parameters == set(cli._FLAGS)


def test_readme_usage_names_exactly_each_runner_parameters():
    # README's "Command line" block lists each subcommand's flags by hand;
    # each list must be that runner's parameters, as the parser builds them.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n+```\n(.*?)^```", readme, re.DOTALL | re.MULTILINE).group(1)
    usage: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("qfel "):
            command = line.split()[1]
            usage[command] = set()
        usage[command] |= set(re.findall(r"--([a-z0-9_]+)", line))
    assert usage == {name: set(inspect.signature(cli._runner(name)).parameters) for name in cli._COMMANDS}


def test_console_script_entry_point_is_cli_main():
    # ``[project.scripts]`` names the ``qfel`` command's function as a
    # "module:attr" string that nothing else imports; a regex, since tomllib
    # needs Python 3.11 and the package supports 3.10.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.DOTALL | re.MULTILINE).group(1)
    module, attr = re.search(r'^qfel\s*=\s*"([\w.]+):(\w+)"\s*$', section, re.MULTILINE).groups()
    assert getattr(importlib.import_module(module), attr) is cli.main


class TestSweepLow:
    def test_grid_shape_and_clean_errors(self, default_rows):
        _, header, cols = default_rows
        assert header == cli._SWEEP_HEADER
        assert len(cols["alpha"]) == 9  # three alphas x three resonances
        assert all(cell == "" for cell in cols["error"])

    def test_fitted_frequencies_match_closed_form(self, default_rows):
        _, _, cols = default_rows
        for i in range(9):
            nu = int(cols["resonance"][i])
            alpha = cols["alpha"][i]
            assert cols["fitted_frequency"][i] == pytest.approx(
                gain_frequency(nu, alpha), rel=0.05
            ), f"alpha={alpha} nu={nu}"
            assert cols["max_amplitude"][i] == pytest.approx(nu, abs=0.15)

    def test_frequency_scales_as_alpha_to_the_resonance_order(self, default_rows):
        # In Omega*t units the envelope frequency goes as alpha^(nu-1), so
        # doubling alpha multiplies it by 2^(nu-1) up to O(alpha^2) terms.
        _, _, cols = default_rows
        freq = {}
        for i in range(9):
            key = (round(cols["alpha"][i], 3), int(cols["resonance"][i]))
            freq[key] = cols["fitted_frequency"][i] / cols["alpha"][i]
        for nu in (1, 2, 3):
            for lo, hi in ((0.1, 0.2), (0.2, 0.3)):
                ideal = (hi / lo) ** (nu - 1)
                assert freq[(hi, nu)] / freq[(lo, nu)] == pytest.approx(ideal, rel=0.15)

    def test_effective_variant_point(self, tmp_path):
        out = tmp_path / "eff.csv"
        code = cli.main(
            ["sweep", "--variant", "effective", "--alpha", "0.25", "--resonance", "1", "--out", str(out)]
        )
        assert code == 0
        _, _, cols = _read_csv(out)
        assert cols["fitted_frequency"][0] == pytest.approx(gain_frequency(1, 0.25), rel=0.02)
        assert cols["error"][0] == ""

    @pytest.mark.parametrize("variant", ["full_hamiltonian", "effective"])
    def test_second_resonance_breakdown_is_named(self, tmp_path, variant):
        # The auto span is pi / gain_frequency(2, alpha), whose bracket
        # 1 - 16 alpha^2 / 9 is 0 at alpha = 0.75 and negative above it.
        out = tmp_path / "breakdown.csv"
        argv = ["sweep", "--variant", variant, "--alpha", "0.7,0.75,0.8", "--resonance", "2"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        _, _, cols = _read_csv(out)
        assert cols["error"][0] == ""
        assert math.isfinite(cols["fitted_frequency"][0])
        for i in (1, 2):
            assert cols["error"][i] == "second-resonance frequency breaks down: 16 alpha^2 / 9 >= 1"
            assert math.isnan(cols["fitted_frequency"][i])

    def test_first_resonance_breakdown_is_named(self, tmp_path):
        # The auto span is pi / gain_frequency(1, alpha), whose bracket
        # 1 - alpha^2 / 4 is 0 at alpha = 2 and negative above it.
        out = tmp_path / "breakdown.csv"
        with pytest.warns(UserWarning, match="outside the quantum regime"):
            assert cli.main(["sweep", "--alpha", "2,2.5", "--resonance", "1", "--out", str(out)]) == 0
        _, _, cols = _read_csv(out)
        for i in (0, 1):
            assert cols["error"][i] == "first-resonance frequency breaks down: alpha^2 / 4 >= 1"
            assert math.isnan(cols["fitted_frequency"][i])

    def test_empty_grid_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert cli.main(["sweep", "--alpha", "", "--out", str(out)]) == 0
        lines = out.read_text(encoding="ascii").splitlines()
        assert len(lines) == 2
        assert lines[1] == ",".join(cli._SWEEP_HEADER)


class TestSweepHigh:
    def test_closed_form_grid(self, tmp_path):
        out = tmp_path / "high.csv"
        assert cli.main(["sweep", "--regime", "high", "--out", str(out)]) == 0
        _, _, cols = _read_csv(out)
        assert len(cols["alpha"]) == 6  # three alphas x two resonances
        assert all(cell == "" for cell in cols["error"])
        for i in range(6):
            alpha, nu = cols["alpha"][i], int(cols["resonance"][i])
            n0, N = cols["n0"][i], int(cols["electrons"][i])
            p = FelParams(alpha=alpha, nu=nu, n0=n0, N=N, context="high")
            assert cols["max_amplitude"][i] == n0 + nu * N
            # %.12g round-trip keeps twelve significant digits.
            assert cols["max_position"][i] == pytest.approx(lmax_exact(p, nu), rel=1e-9)
            assert cols["length_ratio_shorthand"][i] == pytest.approx(lmax_ratio(p), rel=1e-9)
            assert cols["length_ratio_exact"][i] > 1.0

    @pytest.mark.filterwarnings("ignore:alpha")
    def test_crossover_and_breakdown_rows(self, tmp_path):
        out = tmp_path / "strong.csv"
        assert cli.main(["sweep", "--regime", "high", "--alpha", "2.5,3.0", "--out", str(out)]) == 0
        _, _, cols = _read_csv(out)
        ratio = {
            (cols["alpha"][i], int(cols["resonance"][i])): cols["length_ratio_shorthand"][i]
            for i in range(len(cols["alpha"]))
        }
        # The length ordering flips once the shorthand ratio crosses one.
        assert ratio[(2.5, 1)] > 1.0
        assert ratio[(3.0, 1)] < 1.0
        # Past the perturbative domain the first-resonance length is refused,
        # but every other field of the row survives.
        for i in range(len(cols["alpha"])):
            if cols["alpha"][i] == 3.0 and cols["resonance"][i] == 1:
                assert "breaks down" in cols["error"][i]
                assert np.isnan(cols["max_position"][i])
                assert np.isfinite(cols["length_ratio_shorthand"][i])

    @pytest.mark.filterwarnings("ignore:alpha")
    def test_phase_factor_breakdown_is_reported_once(self, tmp_path):
        # The row reads the first-resonance length for max_position and for
        # the exact ratio; it is computed once, so its error is written once.
        out = tmp_path / "breakdown.csv"
        argv = ["sweep", "--regime", "high", "--alpha", "3", "--n0", "1", "--electrons", "10000",
                "--resonance", "1,2", "--out", str(out)]
        assert cli.main(argv) == 0
        _, _, cols = _read_csv(out)
        text = "first-resonance phase factor breaks down: alpha^2 (1 + 2 n0/N) >= 8"
        assert list(cols["error"]) == [text, text]
        assert np.isnan(cols["max_position"][0]) and np.isfinite(cols["max_position"][1])
        assert list(cols["max_amplitude"]) == [10001.0, 20001.0]
        assert all(np.isnan(cols["length_ratio_exact"]))

    def test_non_finite_alpha_row(self, tmp_path):
        out = tmp_path / "inf.csv"
        assert cli.main(["sweep", "--regime", "high", "--alpha", "inf", "--out", str(out)]) == 0
        _, _, cols = _read_csv(out)
        assert len(cols["alpha"]) == 2
        for i in range(2):
            assert np.isnan(cols["length_ratio_shorthand"][i])
            assert cols["error"][i].count("alpha must be positive and finite") == 1

    @pytest.mark.filterwarnings("ignore:alpha")
    def test_exact_ratio_is_written_where_only_the_shorthand_refuses(self, tmp_path):
        # At n0/N = 2 the logarithmic shorthand refuses, but both exact lengths
        # exist; at alpha = 3 the first-resonance length is refused too, and
        # each refusal is written once per row.
        out = tmp_path / "strong_seed.csv"
        argv = ["sweep", "--regime", "high", "--n0", "20000", "--alpha", "0.1,3", "--out", str(out)]
        assert cli.main(argv) == 0
        _, _, cols = _read_csv(out)
        p = FelParams(alpha=0.1, n0=20000.0, N=10000, context="high")
        exact = lmax_exact(p, 2) / lmax_exact(p, 1)
        assert list(cols["max_position"][:2]) == pytest.approx([lmax_exact(p, 1), lmax_exact(p, 2)], rel=1e-9)
        assert list(cols["length_ratio_exact"][:2]) == pytest.approx([exact, exact], rel=1e-9)
        assert all(np.isnan(cols["length_ratio_shorthand"]))
        assert all(np.isnan(cols["length_ratio_exact"][2:]))
        shorthand = "the logarithmic form needs 0 < n0/N < 1"
        breakdown = "first-resonance phase factor breaks down: alpha^2 (1 + 2 n0/N) >= 8"
        assert list(cols["error"]) == [shorthand, shorthand, f"{breakdown}; {shorthand}", f"{shorthand}; {breakdown}"]

    def test_rejected_resonance_rows_hold_no_ceiling(self, tmp_path):
        out = tmp_path / "nu.csv"
        argv = ["sweep", "--regime", "high", "--resonance", "3,-1", "--alpha", "0.2", "--out", str(out)]
        assert cli.main(argv) == 0
        _, _, cols = _read_csv(out)
        for i, nu in enumerate((3, -1)):
            assert np.isnan(cols["max_amplitude"][i])
            assert np.isnan(cols["max_position"][i])
            assert cols["error"][i] == f"resonance must be 1 or 2; got {nu}"

    @pytest.mark.parametrize(
        "n0, error",
        [
            # (n0/N)(n0/N + 2) overflows, so the second-resonance length would be pi / inf = 0.
            ("1e308", "n0 = 1e+308 is too large: (n0/N)(n0/N + 2) overflows"),
            ("0", "the collective closed forms need a seeded field: n0 > 0; got 0.0"),
        ],
    )
    def test_an_overflowing_seed_ratio_is_refused_not_written_as_zero(self, tmp_path, n0, error):
        # The closed forms' boundary refuses the row: no ceiling, length or
        # ratio is written next to its one error.
        out = tmp_path / "refused.csv"
        argv = ["sweep", "--regime", "high", "--n0", n0, "--alpha", "0.2", "--out", str(out)]
        assert cli.main(argv) == 0
        _, _, cols = _read_csv(out)
        assert list(cols["resonance"]) == [1, 2]
        for column in ("max_amplitude", "max_position", "length_ratio_shorthand", "length_ratio_exact"):
            assert all(np.isnan(cols[column])), column
        assert list(cols["error"]) == [error, error]

    def test_rejects_low_regime_only_flags(self, capsys):
        for flag, value in (("--variant", "dicke_only"), ("--end", "10"), ("--samples", "100")):
            assert cli.main(["sweep", "--regime", "high", flag, value]) == 2
            assert "error:" in capsys.readouterr().err


class TestScenarioFiles:
    def test_flags_override_file_values(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("# a comment\nalpha = 0.3\nsamples = 51\n\nend = 20\n")
        out = tmp_path / "fig2.csv"
        assert cli.main(["fig2", "--config", str(cfg), "--samples", "101", "--out", str(out)]) == 0
        meta, _, cols = _read_csv(out)
        assert "alpha=0.3" in meta  # from the file
        assert "samples=101" in meta  # flag wins
        assert len(cols["Omega_t"]) == 101

    def test_unknown_key_is_rejected_with_known_list(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alhpa = 0.3\n")
        assert cli.main(["fig2", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "alhpa" in err and "known:" in err

    def test_jobs_key_is_unknown_to_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "jobs.cfg"
        cfg.write_text("jobs=2\n")
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown scenario key 'jobs' for sweep") and err.count("\n") == 1
        assert not out.exists()

    def test_low_sweep_rejects_a_seed_from_the_file(self, tmp_path, capsys):
        # A file value is checked as the flag would be: the low regime has no seed.
        cfg = tmp_path / "low.cfg"
        cfg.write_text("n0 = 5\n")
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "--n0/--electrons do not apply" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_line_reports_position(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 0.3\n")
        assert cli.main(["fig2", "--config", str(cfg)]) == 2
        assert f"{cfg}:1" in capsys.readouterr().err


class TestExitCodes:
    def test_bad_numeric_value(self, capsys):
        assert cli.main(["fig2", "--alpha", "fast"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nonpositive_alpha(self, capsys):
        assert cli.main(["fig2", "--alpha", "-1"]) == 2
        capsys.readouterr()

    def test_bad_choice(self, capsys):
        assert cli.main(["sweep", "--regime", "sideways"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fig2", "--samples", "1"], "samples must be at least 2"),
            (["fig2", "--alpha", "nan"], "alpha must be positive"),
            (["fig4", "--alpha", "0"], "alpha must be positive"),
            (["fig3", "--panel", "top", "--electrons", "0"], "N must be a positive integer"),
            (["fig3", "--panel", "top", "--end", "0"], "end must be positive and finite"),
            (["fig4", "--n0", "1e9"], "phase factor breaks down"),
            (["fig2", "--alpha", "inf"], "alpha must be positive and finite"),
            (["fig3", "--panel", "top", "--n0", "nan"], "n0 must be non-negative and finite"),
            (
                ["sweep", "--n0", "nan", "--electrons", "-5", "--alpha", "0.2", "--resonance", "1"],
                "--n0/--electrons do not apply",
            ),
            (["fig2", "--end", "-inf"], "end must be positive and finite"),
            (["fig2", "--alpha", "-1e-3"], "alpha must be positive"),
            (
                ["fig2", "--alpha", "0.75", "--end", "10", "--samples", "6"],
                "second-resonance frequency breaks down: 16 alpha^2 / 9 >= 1",
            ),
            pytest.param(
                ["fig3", "--panel", "top", "--alpha", "2.7", "--electrons", "100", "--n0", "10",
                 "--samples", "11", "--end", "40"],
                "first-resonance phase factor breaks down",
                marks=pytest.mark.filterwarnings("ignore:alpha"),
            ),
            (
                ["sweep", "--variant", "dicke_only"],
                "low-gain sweep variant must be 'full_hamiltonian' or 'effective', got 'dicke_only'",
            ),
            (["sweep", "--regime", "high", "--variant", "effective"], "--variant does not apply"),
            (["fig3", "--panel", "sideways"], "panel must be 'top' or 'bottom', got 'sideways'"),
            (["sweep", "--regime", "sideways"], "regime must be 'low' or 'high', got 'sideways'"),
        ],
    )
    def test_bad_parameter_is_a_one_line_usage_error(self, argv, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_a_size_that_does_not_fit_is_a_one_line_usage_error(self, tmp_path, capsys, monkeypatch):
        # Raised in place of allocating: "qfel fig4 --samples 100000000000" asks for 745 GiB.
        def sample_axis(end, samples):
            raise MemoryError(f"Unable to allocate an axis of {samples} samples")

        monkeypatch.setattr(cli, "sample_axis", sample_axis)
        out = tmp_path / "fig4.csv"
        assert cli.main(["fig4", "--samples", "100000000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate an axis of 100000000000 samples\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [["fig3", "--panel", "top", "--electrons", "50", "--n0", "10", "--samples", "11"], ["validate"]]
    )
    def test_a_missing_openblas_is_a_one_line_error(self, argv, tmp_path, capsys, monkeypatch):
        # The eigh route calls dstemr from the OpenBLAS that NumPy's wheel
        # bundles; here numpy.libs holds none.  validate runs for a minute
        # before its first collective ladder, so one eigh call stands in for it.
        monkeypatch.setattr(highgain, "_OPENBLAS", None)
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        monkeypatch.setattr(cli, "run_validate", lambda: highgain.eigh_tridiagonal(np.zeros(2), np.ones(1)))
        out = tmp_path / "x.csv"
        assert cli.main(argv + (["--out", str(out)] if argv[0] != "validate" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "the eigh route calls dstemr from NumPy's bundled OpenBLAS" in err
        assert not out.exists()

    def test_unwritable_output_path(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "fig4.csv"
        assert cli.main(["fig4", "--out", str(target)]) == 1
        capsys.readouterr()

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["transmogrify"])
        assert info.value.code == 2

    def test_sweep_has_no_jobs_flag(self, tmp_path, capsys):
        # The sweep runs its points in one serial loop, so it takes no --jobs flag.
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as info:
            cli.main(["sweep", "--jobs", "2", "--out", str(out)])
        assert info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not out.exists()


#: Flag values for the fuzz test: non-finite, signed, zero, tiny, ordinary,
#: huge, not a number and empty.
FUZZ_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e-300", "0.3", "2", "1e300", "x", "")
#: Numeric flags per command.
FUZZ_FLAGS = {
    ("fig2",): ("alpha", "end", "samples"),
    ("fig3", "--panel=top"): ("alpha", "n0", "electrons", "end", "samples"),
    ("fig3", "--panel=bottom"): ("alpha", "n0", "electrons", "end", "samples"),
    ("fig4",): ("alpha", "n0", "electrons", "end", "samples"),
    ("sweep",): ("alpha", "n0", "resonance", "electrons", "end", "samples"),
    ("sweep", "--regime=high"): ("alpha", "n0", "resonance", "electrons", "end", "samples"),
}
#: Sweep columns each regime fills; the others are NaN by design.
SWEEP_FILLED = {
    "low": ("alpha", "fitted_frequency", "max_amplitude", "max_position"),
    "high": ("alpha", "n0", "max_amplitude", "max_position", "length_ratio_shorthand", "length_ratio_exact"),
}


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = draw(st.permutations(FUZZ_FLAGS[command]))[: draw(st.integers(1, 2))]
    argv = list(command)
    for flag in flags:
        value = draw(st.sampled_from(FUZZ_VALUES))
        # Both spellings are one call: "--end -inf" must not read "-inf" as an option.
        argv += [f"--{flag}", value] if draw(st.booleans()) else [f"--{flag}={value}"]
    if command[0] == "fig3" and "electrons" not in flags:
        argv.append("--electrons=24")  # keeps the collective solve small
    return argv


class TestFuzz:
    @pytest.mark.filterwarnings("ignore:alpha")
    @settings(max_examples=300, deadline=None, derandomize=True)
    @example(["fig2", "--end=nan"])
    @example(["fig4", "--alpha=1e300"])
    @example(["fig2", "--end", "-inf"])
    @given(argv=cli_calls())
    def test_a_value_gives_a_finite_csv_or_one_error_line(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.csv"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + [f"--out={out}"])
            lines = err.getvalue().splitlines()
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert lines and lines[-1].startswith("error: ")
                assert not out.exists()
            if code != 0:
                return
            _, _, cols = _read_csv(out)
            if argv[0] != "sweep":
                assert all(np.all(np.isfinite(col)) for col in cols.values())
                return
            filled = SWEEP_FILLED["high" if "--regime=high" in argv else "low"]
            for i, error in enumerate(cols["error"]):
                assert error or all(math.isfinite(cols[name][i]) for name in filled), (i, error)


class TestValidateCommand:
    def test_exit_code_matches_reported_lines(self, capsys):
        # The command's contract: exit 0 exactly when every check line
        # reports PASS.  (Shares the cached context with the acceptance
        # suite, so this does not redo the heavy propagations.)
        code = cli.main(["validate"])
        output = capsys.readouterr().out.splitlines()
        check_lines = [line for line in output if re.match(r"^\[(PASS|FAIL)\]", line)]
        assert len(check_lines) == 9
        for line, result in zip(check_lines, validation.run_all()):
            # Every gate prints as "label value (tol limit)".
            assert line.count("(tol ") == len(result.gates), line
            assert line == result.line()
        failures = [line for line in check_lines if line.startswith("[FAIL]")]
        assert output[-1].endswith(f"{9 - len(failures)}/9 checks passed")
        assert code == (0 if not failures else 1)
