"""Experiment configuration, runners and their CSV/SVG artifacts."""

import hashlib
import math
import os

import numpy as np
import pytest

import srblab as sl
from srblab.experiments import _row_seed
from srblab.reporting import format_real


class TestConfigRoundTrip:
    def test_serialize_parse_identity(self):
        cfg = sl.ExperimentConfig(family="tent", map_params={"slope": 1.8},
                                  seed=7, bins=512, tau_max=9)
        assert sl.parse(sl.serialize(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = sl.ExperimentConfig(family="quadratic", map_params={"a": 2.0},
                                  induce_lo=0.0, induce_hi=float(np.sqrt(2.0)),
                                  seed=3)
        path = str(tmp_path / "run.cfg")
        sl.save_config(cfg, path)
        assert sl.load_config(path) == cfg

    def test_unknown_keys_are_rejected(self):
        cfg = sl.ExperimentConfig(family="doubling")
        with pytest.raises(sl.ConfigError, match="unknown key"):
            sl.parse(sl.serialize(cfg) + "\nwibble = 1\n")

    def test_the_removed_solver_mode_key_is_rejected(self):
        cfg = sl.ExperimentConfig(family="doubling")
        with pytest.raises(sl.ConfigError, match="unknown key 'ulam.mode'"):
            sl.parse(sl.serialize(cfg) + "ulam.mode = power\n")

    def test_the_key_table_names_every_key(self):
        doc = sl.config.__doc__
        table = doc[doc.index("Recognised keys"):]
        named = set()
        for line in table.splitlines():
            if line.startswith("``"):
                named.update(k.strip() for k in line.split("``")[1].split(","))
        assert named - {"map.<param>"} == set(sl.config._KEY_TO_FIELD)

    def test_malformed_lines_are_rejected(self):
        with pytest.raises(sl.ConfigError):
            sl.parse("map.family doubling\n")

    def test_validation_catches_bad_bins(self, tmp_path):
        cfg = sl.ExperimentConfig(family="doubling", bins=-5,
                                  out_dir=str(tmp_path))
        with pytest.raises(sl.ConfigError, match="bins"):
            sl.run_density(cfg)


class TestBuildHelpers:
    def test_build_system_dispatches_on_family(self):
        cfg = sl.ExperimentConfig(family="tent", map_params={"slope": 1.7})
        m = sl.build_system(cfg)
        assert m.family == "tent"
        assert abs(m.df_scalar(0.2)) == pytest.approx(1.7)

    @pytest.mark.parametrize("family,params,lo,hi", [
        ("doubling", {}, 0.0, 0.5),
        ("tent", {"slope": 2.0}, 0.0, 0.5),
        ("quadratic", {"a": 2.0}, 0.0, float(np.sqrt(2.0))),
        ("circle_linear", {"d": 2}, 0.0, 0.5),
        ("circle_linear", {"d": 3}, 0.0, 1.0),
        ("circle_linear", {"d": 7}, 0.0, 1.0),
    ])
    def test_default_induction_intervals(self, family, params, lo, hi):
        m = sl.make_map(family, **params)
        delta = sl.default_induction(m)
        assert delta.lo == pytest.approx(lo)
        assert delta.hi == pytest.approx(hi)

    def test_default_induction_is_none_for_cylinder_maps(self, viana_map):
        assert sl.default_induction(viana_map) is None

    def test_build_tower_returns_none_in_two_dimensions(self):
        cfg = sl.ExperimentConfig(family="viana",
                                  map_params={"alpha": 0.01, "d": 16})
        m = sl.build_system(cfg)
        assert sl.build_tower(m, cfg) is None

    def test_build_tower_uses_configured_interval(self):
        cfg = sl.ExperimentConfig(family="tent", map_params={"slope": 2.0},
                                  induce_lo=0.0, induce_hi=0.5, tau_max=8)
        m = sl.build_system(cfg)
        F = sl.build_tower(m, cfg)
        assert F.delta.lo == 0.0 and F.delta.hi == 0.5
        assert F.tau_max == 8


class TestRunners:
    def test_run_entropy_emits_one_row_per_method(self, tmp_path):
        cfg = sl.ExperimentConfig(family="doubling", out_dir=str(tmp_path),
                                  seed=1, bins=512, sample_size=8,
                                  n_iters=5000, smb_depth=16, tau_max=12)
        rep = sl.run_entropy(cfg)
        assert rep.errors == {}
        comments, header, rows = sl.read_csv(str(tmp_path / "entropy.csv"))
        assert header == ["method", "estimate", "std_error", "truncation_bound",
                          "n_orbits", "n_iters", "bins", "tau_cap"]
        assert [r[0] for r in rows] == ["lyapunov", "pesin", "induced",
                                        "abramov", "smb", "kac_mass"]
        by_method = {r[0]: float(r[1]) for r in rows}
        assert by_method["abramov"] == pytest.approx(rep.h_abramov, rel=1e-15)
        assert by_method["kac_mass"] == pytest.approx(rep.kac, rel=1e-15)
        assert any(c.startswith("family") for c in comments)

    def test_run_induce_emits_the_cell_table(self, tmp_path):
        cfg = sl.ExperimentConfig(family="tent", map_params={"slope": 2.0},
                                  out_dir=str(tmp_path), tau_max=10, seed=2)
        F, rep = sl.run_induce(cfg)
        assert rep.markov_ok
        comments, header, rows = sl.read_csv(str(tmp_path / "tower.csv"))
        assert header == ["cell_index", "left", "right", "tau",
                          "deriv_min", "deriv_max"]
        assert len(rows) == len(F.cells)
        taus = [int(r[3]) for r in rows]
        assert sorted(taus) == sorted(c.tau for c in F.cells)

    def test_run_density_emits_bin_values(self, tmp_path):
        cfg = sl.ExperimentConfig(family="tent", map_params={"slope": 2.0},
                                  out_dir=str(tmp_path), bins=128, tau_max=10,
                                  seed=2)
        mu = sl.run_density(cfg)
        comments, header, rows = sl.read_csv(str(tmp_path / "density.csv"))
        assert header == ["bin_index", "left", "right", "value"]
        assert len(rows) == 128
        vals = np.array([float(r[3]) for r in rows])
        np.testing.assert_allclose(vals, mu.values, rtol=1e-15)
        assert f"iterations = {mu.iterations}" in comments
        assert f"residual = {format_real(mu.residual)}" in comments

    def test_run_tail_round_trips_through_csv(self, tmp_path):
        cfg = sl.ExperimentConfig(family="doubling", out_dir=str(tmp_path),
                                  seed=3, tail_lam=0.5, tail_n_max=30,
                                  tail_sample_size=200)
        run = sl.run_tail(cfg)
        assert os.path.exists(run.csv_path)
        assert os.path.exists(run.svg_path)
        prof = sl.load_tail_csv(run.csv_path)
        np.testing.assert_array_equal(prof.n, run.profile.n)
        np.testing.assert_allclose(prof.frac_union, run.profile.frac_union,
                                   atol=1e-15)

    def test_run_tail_requires_a_threshold_or_injection(self, tmp_path):
        cfg = sl.ExperimentConfig(family="doubling", out_dir=str(tmp_path))
        with pytest.raises(sl.ConfigError, match="tail.lam"):
            sl.run_tail(cfg)

    def test_run_tail_fits_an_injected_profile(self, tmp_path):
        n = np.arange(1, 81)
        frac = 0.9 * np.exp(-0.6 * np.sqrt(n))
        params = sl.TailParams(lam=0.3, eps=0.075, delta=1e-6, n_max=80,
                               sample_size=1000)
        prof = sl.TailProfile(n=n, frac_expansion=frac,
                              frac_recurrence=np.zeros_like(frac),
                              frac_union=frac, sample_size=1000,
                              censored_count=0, params=params, seed=0)
        planted_csv = str(tmp_path / "planted.csv")
        from srblab.reporting import write_tail_csv
        write_tail_csv(planted_csv, prof, {})
        cfg = sl.ExperimentConfig(family="doubling", out_dir=str(tmp_path / "out"),
                                  tail_inject=planted_csv)
        run = sl.run_tail(cfg)
        assert run.preferred == "stretched_exp"
        fit = run.fits["stretched_exp"]
        assert fit.gamma == pytest.approx(0.6, rel=1e-6)


@pytest.fixture(scope="module")
def tent_sweep_cfg(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    return sl.ExperimentConfig(family="tent", sweep_parameter="slope",
                               sweep_from=1.6, sweep_to=2.0, sweep_steps=3,
                               out_dir=str(out), seed=4, bins=256,
                               sample_size=8, n_iters=3000, smb_depth=8,
                               tau_max=8)


class TestSweep:
    def test_rows_cover_the_parameter_grid(self, tent_sweep_cfg):
        table = sl.run_sweep(tent_sweep_cfg, workers=1)
        np.testing.assert_allclose(table.values, [1.6, 1.8, 2.0])
        assert len(table.rows) == 3
        comments, header, rows = sl.read_csv(table.csv_path)
        assert header[0] == "parameter"
        assert "h_lyapunov" in header and "density_l1_prev" in header

    def test_entropy_tracks_log_slope_along_the_sweep(self, tent_sweep_cfg):
        table = sl.run_sweep(tent_sweep_cfg, workers=1)
        for row, s in zip(table.rows, table.values):
            assert row["error"] is None
            assert row["h_lyapunov"] == pytest.approx(math.log(s), abs=1e-8)
            assert row["h_pesin"] == pytest.approx(math.log(s), abs=1e-8)

    def test_worker_count_does_not_change_the_bytes(self, tent_sweep_cfg):
        t1 = sl.run_sweep(tent_sweep_cfg, workers=1)
        digest1 = hashlib.sha256(open(t1.csv_path, "rb").read()).hexdigest()
        t2 = sl.run_sweep(tent_sweep_cfg, workers=3)
        digest2 = hashlib.sha256(open(t2.csv_path, "rb").read()).hexdigest()
        assert digest1 == digest2

    def test_a_failed_pesin_solve_leaves_the_other_routes(self, tmp_path):
        # at 256 bins the Misiurewicz-parameter one-step solve needs 145
        # iterations and the tau-8 tower 56, so a budget of 100 fails only
        # the former; only h_pesin may go blank
        cfg = sl.ExperimentConfig(family="quadratic",
                                  map_params={"a": sl.misiurewicz_parameter()},
                                  sweep_parameter="a", sweep_from=sl.misiurewicz_parameter(),
                                  sweep_to=1.6, sweep_steps=2, bins=256,
                                  ulam_max_iters=100, tau_max=8, sample_size=4,
                                  n_iters=2000, seed=0, out_dir=str(tmp_path))
        row = sl.run_sweep(cfg).rows[0]
        assert row["error"] is None
        assert math.isnan(row["h_pesin"])
        assert "density" not in row
        # the first row is at distance 0 from its own tower, and has no
        # density to be at any distance from
        assert row["density_l1_prev"] is None
        assert row["tau_l1_prev"] == 0.0
        assert row["h_lyapunov"] == pytest.approx(0.34, abs=0.02)
        assert math.isfinite(row["kappa"]) and math.isfinite(row["distortion"])
        comments, header, rows = sl.read_csv(str(tmp_path / "sweep.csv"))
        cells = dict(zip(header, rows[0]))
        assert cells["h_pesin"] == "" and cells["error"] == ""
        assert cells["density_l1_prev"] == "" and cells["tau_l1_prev"] != ""
        assert cells["h_lyapunov"] and cells["kappa"] and cells["distortion"]

    def test_the_band_swapping_row_solves_with_the_default_budget(self, tmp_path):
        cfg = sl.ExperimentConfig(family="quadratic",
                                  map_params={"a": sl.misiurewicz_parameter()},
                                  sweep_parameter="a", sweep_from=sl.misiurewicz_parameter(),
                                  sweep_to=1.6, sweep_steps=2, bins=256, tau_max=8,
                                  sample_size=4, n_iters=2000, seed=0, out_dir=str(tmp_path))
        row = sl.run_sweep(cfg).rows[0]
        assert row["error"] is None
        assert row["h_pesin"] == pytest.approx(0.34, abs=0.01)
        assert row["density_l1_prev"] == 0.0

    def test_rows_without_a_density_or_tower_read_no_distance(self, tmp_path):
        # cylinder maps have neither a 1D density nor a tower
        cfg = sl.ExperimentConfig(family="viana", map_params={"alpha": 0.01},
                                  sweep_parameter="alpha", sweep_from=0.01,
                                  sweep_to=0.02, sweep_steps=2, bins=64,
                                  sample_size=4, n_iters=2000, seed=0,
                                  out_dir=str(tmp_path))
        table = sl.run_sweep(cfg)
        assert [r["error"] for r in table.rows] == [None, None]
        comments, header, rows = sl.read_csv(table.csv_path)
        for r in rows:
            cells = dict(zip(header, r))
            assert cells["density_l1_prev"] == "" and cells["tau_l1_prev"] == ""

    def test_viana_rows_equal_their_own_reports_for_any_worker_count(self, tmp_path):
        # the sweep runs the Lyapunov orbits of all rows in one driver call;
        # each row must still read what its own entropy_report gives
        cfg = sl.ExperimentConfig(family="viana", map_params={"alpha": 0.01},
                                  sweep_parameter="alpha", sweep_from=0.0,
                                  sweep_to=0.06, sweep_steps=4, bins=64,
                                  sample_size=4, n_iters=700, seed=5,
                                  out_dir=str(tmp_path))
        digests = []
        for workers in (1, 2):
            table = sl.run_sweep(cfg, workers=workers)
            with open(table.csv_path, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        assert digests[0] == digests[1]
        comments, header, rows = sl.read_csv(table.csv_path)
        for i, (value, r) in enumerate(zip(table.values, rows)):
            rep = sl.entropy_report(sl.make_map("viana", alpha=value), None, bins=64,
                                    n_orbits=4, n_iters=700, seed=_row_seed(5, i))
            cells = dict(zip(header, r))
            assert cells["error"] == ""
            assert cells["h_lyapunov"] == format_real(rep.h_lyapunov)
            assert cells["lyapunov_se"] == format_real(rep.lyapunov_se)
            assert cells["h_pesin"] == format_real(rep.h_pesin)

    def test_sweep_requires_a_parameter(self, tmp_path):
        cfg = sl.ExperimentConfig(family="tent", out_dir=str(tmp_path))
        with pytest.raises(sl.ConfigError):
            sl.run_sweep(cfg)


class TestSvg:
    def test_emit_svg_writes_a_plot(self, tmp_path):
        path = str(tmp_path / "plot.svg")
        x = np.arange(10)
        sl.emit_svg(path, x, {"series": np.sqrt(x)}, xlabel="n", ylabel="v",
                    title="demo")
        text = open(path).read()
        assert text.startswith("<?xml") or "<svg" in text.splitlines()[0]
        assert "demo" in text
