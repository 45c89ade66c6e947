"""End-to-end acceptance gate for the tower/entropy pipeline.

Nine checks, numbered 01-04 and 06-10 because the project notes cite them
by number, each printing one ``[PASS]``/``[FAIL]`` line with the measured
numbers before asserting, so a red run still records how far off it was.
Stated runtime budgets are asserted alongside the numerical tolerances.
"""

import hashlib
import math
import time

import numpy as np
import pytest

import srblab as sl

LOG2 = math.log(2.0)


def _verdict(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)


def test_01_doubling_return_pipeline():
    """Exact doubling tower + Ulam density: kac mass, both tower entropies,
    and the spread-measure mass, all against closed forms, under 10 s."""
    t0 = time.perf_counter()
    m = sl.make_map("doubling")
    F = sl.first_return_map(m, sl.Interval(0.0, 0.5), 20)
    sl.verify_axioms(F)
    mu_F = sl.stationary_density(sl.ulam_matrix(F, 4096))
    kac = sl.kac_mass(F, mu_F)
    h_ind = sl.entropy_induced(F, mu_F)
    h_abr = sl.entropy_abramov(F, mu_F, kac)
    spread = sl.spread_measure(m, F, mu_F, 4096)
    elapsed = time.perf_counter() - t0

    ok = (abs(kac - 2.0) <= 1e-4 and abs(h_ind - 2 * LOG2) <= 1e-3
          and abs(h_abr - LOG2) <= 1e-3 and abs(spread.mass - kac) <= 1e-4
          and elapsed < 10.0)
    _verdict(ok, "acceptance 1 (doubling return pipeline)",
             f"kac={kac:.6f}, h_induced={h_ind:.6f}, h_abramov={h_abr:.6f}, "
             f"spread_mass={spread.mass:.6f}, {elapsed:.1f}s")
    assert abs(kac - 2.0) <= 1e-4
    assert abs(h_ind - 2 * LOG2) <= 1e-3
    assert abs(h_abr - LOG2) <= 1e-3
    assert abs(spread.mass - kac) <= 1e-4
    assert elapsed < 10.0


def test_02_entropy_routes_agree_on_affine_maps():
    """Ambient quadrature and orbit exponents agree with the rescaled tower
    entropy on the doubling and slope-2 tent maps, under 30 s."""
    t0 = time.perf_counter()
    gaps = {}
    for family, build in [
        ("doubling", lambda m: sl.first_return_map(m, sl.Interval(0.0, 0.5), tau_max=20)),
        ("tent", lambda m: sl.first_return_map(m, sl.Interval(0.0, 0.5), tau_max=20)),
    ]:
        m = sl.make_map(family) if family == "doubling" else sl.make_map("tent", slope=2.0)
        F = build(m)
        sl.verify_axioms(F)
        mu_F = sl.stationary_density(sl.ulam_matrix(F, 4096))
        h_abr = sl.entropy_abramov(F, mu_F, sl.kac_mass(F, mu_F))
        mu = sl.stationary_density(sl.one_step_ulam(m, 4096))
        h_pes = sl.entropy_pesin(m, mu)
        h_lya, _ = sl.entropy_lyapunov(m, 64, 100_000, seed=0)
        gaps[family] = (abs(h_pes - h_abr), abs(h_lya - h_abr))
    elapsed = time.perf_counter() - t0

    worst_pes = max(g[0] for g in gaps.values())
    worst_lya = max(g[1] for g in gaps.values())
    ok = worst_pes <= 2e-3 and worst_lya <= 1e-2 and elapsed < 30.0
    _verdict(ok, "acceptance 2 (entropy routes agree)",
             f"max|h_pesin-h_abramov|={worst_pes:.2e}, "
             f"max|h_lyapunov-h_abramov|={worst_lya:.2e}, {elapsed:.1f}s")
    assert worst_pes <= 2e-3
    assert worst_lya <= 1e-2
    assert elapsed < 30.0


def test_03_quadratic_closed_form_density():
    """One-step Ulam density of q(x)=2-x^2 versus the exact arcsine law at
    2^14 bins, plus both ambient entropy routes near log 2, under 60 s."""
    t0 = time.perf_counter()
    m = sl.make_map("quadratic")
    mu = sl.stationary_density(sl.one_step_ulam(m, 2**14))
    cdf = np.arcsin(np.clip(mu.grid.edges / 2.0, -1.0, 1.0)) / math.pi
    exact = sl.GridDensity(grid=mu.grid, values=np.diff(cdf) / mu.grid.widths,
                           provenance="normalized")
    l1 = sl.l1_distance(mu, exact)
    h_pes = sl.entropy_pesin(m, mu)
    h_lya, _ = sl.entropy_lyapunov(m, 64, 100_000, seed=0)
    elapsed = time.perf_counter() - t0

    ok = (l1 <= 1e-2 and abs(h_pes - LOG2) <= 0.02 and abs(h_lya - LOG2) <= 0.02
          and elapsed < 60.0)
    _verdict(ok, "acceptance 3 (quadratic arcsine density)",
             f"L1={l1:.6f} (budget 1e-2), |h_pesin-log2|={abs(h_pes - LOG2):.2e}, "
             f"|h_lyapunov-log2|={abs(h_lya - LOG2):.2e}, {elapsed:.1f}s")
    assert abs(h_pes - LOG2) <= 0.02
    assert abs(h_lya - LOG2) <= 0.02
    assert elapsed < 60.0
    assert l1 <= 1e-2


def test_04_quotient_matches_base_exponent(doubling_map, tower_doubling20,
                                           mu_doubling20, tent2_map, tower_tent2,
                                           mu_tent2):
    """Tower exponent over the mean return time reproduces the base-map
    exponent on the doubling and tent towers."""
    gaps, exponents = {}, {}
    for m, F, mu in [(doubling_map, tower_doubling20, mu_doubling20),
                     (tent2_map, tower_tent2, mu_tent2)]:
        qc = sl.lyapunov_quotient_check(m, F, mu, sample=32, n=20_000, seed=0)
        gaps[m.family] = abs(qc.quotient - qc.lambda_f)
        exponents[m.family] = (qc.lambda_F, qc.lambda_f)
    worst = max(gaps.values())

    ok = worst <= 1e-3
    _verdict(ok, "acceptance 4 (exponent quotient)",
             ", ".join(f"{k}: |quotient-lambda_f|={v:.2e}" for k, v in gaps.items()))
    assert worst <= 1e-3
    # pinned by regression: reorganising the orbit loops must not move a bit
    assert exponents == {"doubling": (1.385239477754479, 0.6931471805593586),
                         "tent": (1.3866940037911906, 0.6931471805593575)}


def test_06_linear_majorant_on_all_towers(tower_doubling12, tower_tent2,
                                          tower_tent17, tower_quadratic,
                                          tower_circle3, mutant):
    """log J_F <= C tau holds on every built-in tower, and an inflated-slope
    mutant is caught by the same check."""
    towers = {"doubling": tower_doubling12, "tent2": tower_tent2,
              "tent17": tower_tent17, "quadratic": tower_quadratic,
              "circle3": tower_circle3}
    ratios = {name: sl.majorant_check(F).worst_ratio for name, F in towers.items()}

    F = tower_doubling12
    mutant_ratio = sl.majorant_check(mutant(F, "slope", 1.5 * F.cells.slope[0])).worst_ratio

    ok = all(r <= 1.0 + 1e-9 for r in ratios.values()) and mutant_ratio > 1.0 + 1e-9
    _verdict(ok, "acceptance 6 (linear majorant)",
             ", ".join(f"{k}: {v:.9f}" for k, v in ratios.items())
             + f"; inflated mutant ratio={mutant_ratio:.3f}")
    for name, r in ratios.items():
        assert r <= 1.0 + 1e-9, name
    assert mutant_ratio > 1.0 + 1e-9


def test_07_axiom_verification_and_shrunken_cell(mutant):
    """The exact doubling tower passes all three axioms with its closed-form
    constants; a 1% cell shrinkage is flagged by the onto check."""
    F = sl.first_return_map(sl.make_map("doubling"), sl.Interval(0.0, 0.5), 20)
    rep = sl.verify_axioms(F)

    c = F.cells
    mrep = sl.verify_axioms(mutant(F, "hi", c.lo[0] + 0.99 * (c.hi[0] - c.lo[0])))

    ok = (rep.all_ok and rep.kappa == 0.5 and rep.distortion == 0.0
          and rep.markov_defect == 0.0 and not mrep.markov_ok
          and mrep.defect_cell == 0)
    _verdict(ok, "acceptance 7 (axiom verification)",
             f"kappa={rep.kappa}, distortion={rep.distortion}, "
             f"defect={rep.markov_defect}; shrunken cell -> markov_ok="
             f"{mrep.markov_ok}, defect={mrep.markov_defect:.6f} at cell "
             f"{mrep.defect_cell}")
    assert rep.all_ok
    assert rep.kappa == 0.5
    assert rep.distortion == 0.0
    assert rep.markov_defect == 0.0
    assert not mrep.markov_ok
    assert mrep.defect_cell == 0
    assert mrep.markov_defect > 0.0


def test_08_continuity_sweeps(tmp_path):
    """Tent sweep tracks log(slope) to 1e-3; for the perturbed circle family,
    halving the parameter step halves (within 20%) both the largest entropy
    jump and the largest L1 density distance between successive rows."""
    cfg = sl.ExperimentConfig(family="tent", map_params={"slope": 2.0},
                              sweep_parameter="slope", sweep_from=1.5,
                              sweep_to=2.0, sweep_steps=11, bins=1024,
                              sample_size=16, n_iters=20_000, tau_max=20,
                              seed=0, out_dir=str(tmp_path / "tent"))
    table = sl.run_sweep(cfg)
    row_errors = [r["error"] for r in table.rows if r["error"]]
    tent_err = max(abs(r["h_pesin"] - math.log(r["parameter"]))
                   for r in table.rows if r["error"] is None)

    def circle_sweep(steps: int, tag: str):
        c = sl.ExperimentConfig(family="circle_perturbed", map_params={"t": 0.0},
                                sweep_parameter="t", sweep_from=0.0, sweep_to=0.4,
                                sweep_steps=steps, bins=1024, sample_size=16,
                                n_iters=20_000, tau_max=20, seed=0,
                                out_dir=str(tmp_path / tag))
        tb = sl.run_sweep(c)
        assert not [r["error"] for r in tb.rows if r["error"]]
        hs = [r["h_pesin"] for r in tb.rows]
        dh = max(abs(b - a) for a, b in zip(hs, hs[1:]))
        dd = max(r["density_l1_prev"] for r in tb.rows[1:])
        return dh, dd

    dh_coarse, dd_coarse = circle_sweep(5, "coarse")
    dh_fine, dd_fine = circle_sweep(9, "fine")
    r_h = dh_coarse / dh_fine
    r_d = dd_coarse / dd_fine

    ok = (not row_errors and tent_err <= 1e-3
          and 1.6 <= r_h <= 2.4 and 1.6 <= r_d <= 2.4)
    _verdict(ok, "acceptance 8 (continuity sweeps)",
             f"tent max|h-log s|={tent_err:.2e}; circle step-halving ratios: "
             f"entropy {r_h:.3f}, density {r_d:.3f} (want 2 +/- 0.4)")
    assert not row_errors
    assert tent_err <= 1e-3
    assert 1.6 <= r_h <= 2.4
    assert 1.6 <= r_d <= 2.4


def test_09_tail_machinery(tmp_path):
    """Uniformly expanding maps give the empty tail; a planted decay is
    recovered to 1e-4 relative; the cylinder family yields a non-increasing
    profile with a positive fitted rate, pinned by regression. Under 5 min."""
    t0 = time.perf_counter()
    doubling = sl.make_map("doubling")
    prof0 = sl.tail_profile(doubling, sl.TailParams(lam=LOG2, eps=0.25 * LOG2,
                                                    delta=1e-6, n_max=60,
                                                    sample_size=2000), seed=0)
    empty = not prof0.frac_union.any()
    with pytest.raises(sl.InsufficientDataError):
        sl.fit_tail_decay(prof0, model="stretched_exp")

    n = np.arange(1, 121)
    frac = 0.9 * np.exp(-0.8 * np.sqrt(n))
    planted = sl.TailProfile(n=n, frac_expansion=frac,
                             frac_recurrence=np.zeros_like(frac), frac_union=frac,
                             sample_size=10_000, censored_count=0,
                             params=sl.TailParams(lam=0.3, eps=0.075, delta=1e-6,
                                                  n_max=120, sample_size=10_000),
                             seed=0)
    from srblab.reporting import write_tail_csv
    planted_csv = str(tmp_path / "planted.csv")
    write_tail_csv(planted_csv, planted, {})
    run = sl.run_tail(sl.ExperimentConfig(family="doubling", tail_inject=planted_csv,
                                          out_dir=str(tmp_path / "rec")))
    rec = run.fits["stretched_exp"]
    rel = abs(rec.gamma - 0.8) / 0.8

    viana = sl.make_map("viana", alpha=0.01, d=16, a0=sl.misiurewicz_parameter())
    prof = sl.tail_profile(viana, sl.TailParams(lam=0.3, eps=0.075, delta=1e-6,
                                                n_max=200, sample_size=10_000),
                           seed=0)
    monotone = bool(np.all(np.diff(prof.frac_union) <= 1e-15))
    stretched = sl.fit_tail_decay(prof, model="stretched_exp")
    poly = sl.fit_tail_decay(prof, model="polynomial")
    elapsed = time.perf_counter() - t0

    ok = (empty and run.preferred == "stretched_exp" and rel <= 1e-4 and monotone
          and stretched.gamma > 0
          and stretched.gamma == pytest.approx(1.4413867117102834, rel=1e-9)
          and poly.gamma == pytest.approx(2.670057724216518, rel=1e-9)
          and elapsed < 300.0)
    _verdict(ok, "acceptance 9 (tail machinery)",
             f"doubling empty={empty}; planted gamma rel err={rel:.2e}; "
             f"cylinder monotone={monotone}, stretched gamma="
             f"{stretched.gamma:.6f}, polynomial gamma={poly.gamma:.6f}, "
             f"{elapsed:.1f}s")
    assert empty
    assert run.preferred == "stretched_exp"
    assert rel <= 1e-4
    assert monotone
    assert stretched.gamma > 0
    assert stretched.gamma == pytest.approx(1.4413867117102834, rel=1e-9)
    assert stretched.C == pytest.approx(18.82330879751948, rel=1e-9)
    assert poly.gamma == pytest.approx(2.670057724216518, rel=1e-9)
    assert elapsed < 300.0


def test_10_worker_count_is_invisible_in_output(tmp_path):
    """Re-running the sweep with more workers leaves sweep.csv bit-identical;
    the pool only reorders work, never results."""
    cfg = sl.ExperimentConfig(family="tent", map_params={"slope": 2.0},
                              sweep_parameter="slope", sweep_from=1.5,
                              sweep_to=2.0, sweep_steps=5, bins=256,
                              sample_size=8, n_iters=5000, tau_max=20,
                              seed=0, out_dir=str(tmp_path))
    digests = []
    for workers in (1, 2):
        table = sl.run_sweep(cfg, workers=workers)
        with open(table.csv_path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())

    ok = digests[0] == digests[1]
    _verdict(ok, "acceptance 10 (worker determinism)",
             f"sha256 workers=1 {digests[0][:16]}..., workers=2 {digests[1][:16]}...")
    assert digests[0] == digests[1]
