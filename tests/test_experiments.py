"""Experiment configuration, runners and their CSV/SVG artifacts."""

import hashlib
import math
import os

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srblab as sl
from srblab.cli import main
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

    @pytest.mark.parametrize("key,value", [
        ("induce.tol", "1e-12"), ("ulam.tol", "1e-10"), ("orbit.retry_budget", "8")])
    def test_the_retired_keys_are_rejected(self, tmp_path, capsys, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(sl.serialize(sl.ExperimentConfig()) + f"{key} = {value}\n")
        assert main(["density", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_the_key_table_names_every_key(self):
        doc = sl.config.__doc__
        table = doc[doc.index("Recognised keys"):]
        named = set()
        for line in table.splitlines():
            if line.startswith("``"):
                named.update(k.strip() for k in line.split("``")[1].split(","))
        keys = {f.metadata.get("key") for f in dataclasses.fields(sl.ExperimentConfig)}
        assert named - {"map.<param>"} == keys - {None}

    def test_malformed_lines_are_rejected(self):
        with pytest.raises(sl.ConfigError):
            sl.parse("map.family doubling\n")

    def test_validation_catches_bad_bins(self, tmp_path):
        cfg = sl.ExperimentConfig(family="doubling", bins=-5,
                                  out_dir=str(tmp_path))
        with pytest.raises(sl.ConfigError, match="bins"):
            sl.run_density(cfg)


#: text of any kind, line breaks, blanks and ``#`` included
_ANY_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
#: text that reads back unchanged: no blanks or line breaks, and a ``#``
#: anywhere but in front
_PLAIN_TEXT = st.text(st.characters(exclude_categories=("Cs", "Z", "Cc"),
                                    exclude_characters="\x85"), max_size=12
                      ).filter(lambda t: not t.startswith("#"))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)


def _configs(text):
    """Valid configs whose string fields and map parameters come from ``text``."""
    params = st.dictionaries(st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True),
                             st.one_of(st.integers(), _FINITE, text), max_size=4)
    count = st.integers(1, 10 ** 12)
    induce = st.one_of(st.just((None, None)),
                       st.tuples(_FINITE, _POSITIVE).map(lambda p: (p[0], p[0] + p[1]))
                       .filter(lambda p: p[0] < p[1] < math.inf))
    return st.builds(
        lambda induce, **kw: sl.ExperimentConfig(induce_lo=induce[0], induce_hi=induce[1],
                                                 **kw),
        induce, family=text, map_params=params,
        sweep_parameter=st.one_of(st.none(), text), sweep_from=_FINITE, sweep_to=_FINITE,
        sweep_steps=st.integers(2, 10 ** 6), n_iters=count, sample_size=count,
        smb_depth=count, bins=count, ulam_max_iters=count, tau_max=count,
        tail_lam=st.one_of(st.none(), _POSITIVE), tail_eps=st.one_of(st.none(), _POSITIVE),
        tail_delta=_POSITIVE, tail_n_max=count, tail_sample_size=count,
        tail_inject=st.one_of(st.none(), text), seed=st.integers(0), out_dir=text)


class TestConfigText:
    @settings(max_examples=200, deadline=None)
    @given(_configs(_ANY_TEXT))
    def test_serialize_round_trips_or_refuses(self, cfg):
        try:
            text = sl.serialize(cfg)
        except sl.ConfigError:
            return
        assert sl.parse(text) == cfg

    @settings(max_examples=200, deadline=None)
    @given(_configs(_PLAIN_TEXT))
    def test_plain_strings_always_round_trip(self, cfg):
        cfg.map_params = {k: v for k, v in cfg.map_params.items()
                          if not isinstance(v, str) or sl.config._parse_scalar(v) == v}
        assert sl.parse(sl.serialize(cfg)) == cfg

    def test_hash_starts_a_comment_only_after_whitespace(self):
        cfg = sl.parse("# a comment\nout_dir = runs/#3 # the third run\n"
                       "seed = 5\t# tab\nmap.family = tent#x\n")
        assert (cfg.out_dir, cfg.seed, cfg.family) == ("runs/#3", 5, "tent#x")
        cfg = sl.ExperimentConfig(out_dir="runs/#3")
        assert sl.parse(sl.serialize(cfg)) == cfg

    @pytest.mark.parametrize("field,value", [
        ("out_dir", "runs #3"), ("out_dir", " runs"), ("out_dir", "a\nseed = 3"),
        ("tail_inject", "x\t#y"), ("family", "tent\r"),
    ])
    def test_strings_that_would_read_back_changed_are_refused(self, field, value):
        with pytest.raises(sl.ConfigError, match="would not read back unchanged"):
            sl.serialize(dataclasses.replace(sl.ExperimentConfig(), **{field: value}))

    def test_a_string_parameter_that_reads_as_a_number_is_refused(self):
        with pytest.raises(sl.ConfigError, match="map.slope"):
            sl.serialize(sl.ExperimentConfig(family="tent", map_params={"slope": "1.8"}))


class TestCsvText:
    def test_a_quoted_line_break_before_a_hash_stays_in_its_field(self, tmp_path):
        path = str(tmp_path / "t.csv")
        sl.write_csv(path, ["k = v"], ["name", "n"], [["a\n# b", 1], ["c", 2]])
        assert sl.read_csv(path) == (["k = v"], ["name", "n"], [["a\n# b", "1"], ["c", "2"]])

    @settings(max_examples=300, deadline=None)
    @given(comments=st.lists(st.text(st.characters(exclude_categories=("Cs",)),
                                     max_size=10).map(str.strip)
                             .filter(lambda c: "\n" not in c and "\r" not in c), max_size=3),
           header=st.lists(_ANY_TEXT, min_size=1, max_size=4)
           .filter(lambda h: not h[0].startswith("#")),
           rows=st.lists(st.lists(st.one_of(_ANY_TEXT, st.floats(allow_nan=False)),
                                  min_size=1, max_size=4), max_size=5))
    def test_write_then_read_is_exact(self, tmp_path_factory, comments, header, rows):
        path = str(tmp_path_factory.mktemp("csv") / "t.csv")
        sl.write_csv(path, comments, header, rows)
        got_comments, got_header, got_rows = sl.read_csv(path)
        assert (got_comments, got_header) == (comments, header)
        assert len(got_rows) == len(rows)
        for got, row in zip(got_rows, rows):
            assert len(got) == len(row)
            for cell, v in zip(got, row):
                if isinstance(v, float):
                    assert cell == format_real(v) and float(cell).hex() == v.hex()
                else:
                    assert cell == v

    def test_comments_and_headers_that_would_not_read_back_are_refused(self, tmp_path):
        path = str(tmp_path / "t.csv")
        with pytest.raises(sl.ArgumentError):
            sl.write_csv(path, ["two\nlines"], ["a"], [])
        with pytest.raises(sl.ArgumentError):
            sl.write_csv(path, [], ["#a"], [])


class TestBuildHelpers:
    def test_build_system_dispatches_on_family(self):
        cfg = sl.ExperimentConfig(family="tent", map_params={"slope": 1.7})
        m = sl.build_system(cfg)
        assert m.family == "tent"
        assert m.fibre_derivative_batch([0.2])[0] == pytest.approx(1.7)

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
        assert header == [f.name for f in dataclasses.fields(sl.Route)]
        assert [r[0] for r in rows] == ["lyapunov", "pesin", "induced",
                                        "abramov", "smb", "kac_mass"]
        by_method = {r[0]: float(r[1]) for r in rows}
        assert by_method["abramov"] == pytest.approx(rep.routes["abramov"].estimate, rel=1e-15)
        assert by_method["kac_mass"] == pytest.approx(rep.routes["kac_mass"].estimate,
                                                      rel=1e-15)
        assert any(c.startswith("family") for c in comments)
        # every cell is its record's field: blank for None and NaN
        def cell(v):
            return "" if v is None else format_real(v) if isinstance(v, float) else str(v)
        assert rows == [[cell(v) for v in dataclasses.astuple(r)]
                        for r in rep.routes.values()]
        assert all(r[1] for r in rows)
        assert [r[4:] for r in rows] == [["8", "5000", "", ""], ["", "", "512", ""],
                                         ["", "", "512", "12"], ["", "", "512", "12"],
                                         ["", "", "", "12"], ["", "", "512", "12"]]
        assert [bool(r[2]) for r in rows] == [True] + [False] * 5
        assert [bool(r[3]) for r in rows] == [False, True, True, True, False, False]
        assert rows[2][3] == rows[3][3]

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
        assert sorted(taus) == sorted(F.cells.tau.tolist())

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

    def test_route_columns_are_their_rows_report_records(self, tent_sweep_cfg):
        table = sl.run_sweep(tent_sweep_cfg, workers=1)
        _, header, rows = sl.read_csv(table.csv_path)
        for i, (value, r) in enumerate(zip(table.values, rows)):
            m = sl.make_map("tent", slope=value)
            rep = sl.entropy_report(m, sl.build_tower(m, tent_sweep_cfg), bins=256,
                                    n_orbits=8, n_iters=3000, smb_depth=8,
                                    seed=_row_seed(4, i))
            cells = dict(zip(header, r))
            for method in ("lyapunov", "pesin", "induced", "abramov"):
                assert cells[f"h_{method}"] == format_real(rep.routes[method].estimate)
            assert cells["lyapunov_se"] == format_real(rep.routes["lyapunov"].std_error)
            assert cells["kac_mass"] == format_real(rep.routes["kac_mass"].estimate) != ""

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

    def test_cylinder_rows_read_a_density_distance_and_no_tau_distance(self, tmp_path):
        # cylinder maps have a 2D density but no tower
        cfg = sl.ExperimentConfig(family="viana", map_params={"alpha": 0.01},
                                  sweep_parameter="alpha", sweep_from=0.01,
                                  sweep_to=0.02, sweep_steps=2, bins=64,
                                  sample_size=4, n_iters=2000, seed=0,
                                  out_dir=str(tmp_path))
        table = sl.run_sweep(cfg)
        assert [r["error"] for r in table.rows] == [None, None]
        comments, header, rows = sl.read_csv(table.csv_path)
        cells = [dict(zip(header, r)) for r in rows]
        assert cells[0]["density_l1_prev"] == format_real(0.0)
        assert math.isfinite(float(cells[1]["density_l1_prev"]))
        assert cells[1]["density_l1_prev"] == format_real(
            sl.l1_distance(table.rows[1]["density"], table.rows[0]["density"]))
        assert [c["tau_l1_prev"] for c in cells] == ["", ""]

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
            lyapunov = rep.routes["lyapunov"]
            assert cells["h_lyapunov"] == format_real(lyapunov.estimate)
            assert cells["lyapunov_se"] == format_real(lyapunov.std_error)
            assert cells["h_pesin"] == format_real(rep.routes["pesin"].estimate)

    def test_sweeps_into_a_directory_a_config_file_cannot_name(self, tmp_path,
                                                                tent_sweep_cfg):
        # " #" would start a comment in a config file; the rows get the
        # config object, not its text
        cfg = dataclasses.replace(tent_sweep_cfg, out_dir=str(tmp_path / "runs #3"))
        with pytest.raises(sl.ConfigError):
            sl.serialize(cfg)
        table = sl.run_sweep(cfg, workers=1)
        assert table.csv_path == os.path.join(cfg.out_dir, "sweep.csv")
        assert all(row["error"] is None for row in table.rows)
        assert open(table.csv_path, "rb").read() == \
            open(sl.run_sweep(tent_sweep_cfg).csv_path, "rb").read()

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
