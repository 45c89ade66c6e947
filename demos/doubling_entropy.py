"""Walk the full entropy pipeline on the doubling map, where every number
has a closed form.

The first-return map of x -> 2x mod 1 to [0, 1/2) is exactly affine: the
cell with return time tau = k+1 is [2^-(k+1), 2^-k) shifted into the base
interval, with slope 2^(k+1).  Along the chain we check

    kac mass          = 2
    h(F)              = 2 log 2   (tower entropy)
    h(f) = h(F)/kac   = log 2     (rescaled to the base map)
    h_pesin = h_lyapunov = log 2  (ambient routes)

Equivalent CLI run: ``srblab entropy --config <cfg>`` with family=doubling.
"""

import math

import srblab as sl


def main() -> None:
    m = sl.make_map("doubling")
    F = sl.first_return_map(m, sl.Interval(0.0, 0.5), 20)
    report = sl.verify_axioms(F)
    print(f"tower: {len(F.cells)} cells, deficit mass {F.deficit:.2e}")
    print(f"axioms: markov_ok={report.markov_ok} kappa={report.kappa} "
          f"distortion={report.distortion}")

    mu_F = sl.stationary_density(sl.ulam_matrix(F, 4096))
    kac = sl.kac_mass(F, mu_F)
    h_ind = sl.entropy_induced(F, mu_F)
    h_abr = sl.entropy_abramov(F, mu_F, kac)
    print(f"kac mass        {kac:.8f}   (exact: 2)")
    print(f"h_induced       {h_ind:.8f}   (exact: 2 log 2 = {2 * math.log(2):.8f})")
    print(f"h_abramov       {h_abr:.8f}   (exact: log 2   = {math.log(2):.8f})")

    mu = sl.stationary_density(sl.one_step_ulam(m, 4096))
    h_pes = sl.entropy_pesin(m, mu)
    h_lya, se = sl.entropy_lyapunov(m, 64, 100_000, seed=0)
    print(f"h_pesin         {h_pes:.8f}")
    print(f"h_lyapunov      {h_lya:.8f}   (se {se:.1e})")

    qc = sl.lyapunov_quotient_check(m, F, mu_F, sample=32, n=20_000, seed=0)
    print(f"tower exponent / mean return = {qc.quotient:.8f} vs base "
          f"exponent {qc.lambda_f:.8f}")

    x = 0.2339674764218604
    h_smb = sl.entropy_smb(F, x, 64)
    print(f"cylinder-counting estimate at depth 64: {h_smb:.8f} "
          f"(target 2 log 2, one orbit only)")


if __name__ == "__main__":
    main()
