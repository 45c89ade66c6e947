"""srblab: induced Markov towers, invariant densities and entropy of
expanding interval and cylinder maps.

The package builds first-return towers over a base interval, verifies
the Markov/expansion/distortion axioms, approximates stationary
densities with sparse Ulam matrices, transports tower measures over the
ambient space, and estimates metric entropy along four independent
routes (orbit exponents, ambient quadrature, tower quadrature rescaled
by the mean return time, and cylinder counting), together with two
checks of the identities behind them: the linear majorant of the tower
log-Jacobian, which bounds the entropy of the censored tail, and the
orbit-exponent quotient, Abramov's formula along orbits.
"""

from .config import ExperimentConfig, load_config, parse, save_config, serialize
from .entropy import (EntropyReport, MajorantCheck, QuotientCheck, Route, entropy_abramov,
                      entropy_induced, entropy_lyapunov, entropy_lyapunov_fast,
                      entropy_lyapunov_rows, entropy_pesin, entropy_report, entropy_smb,
                      entropy_truncation_bound, lyapunov_quotient_check, majorant_check)
from .errors import (ArgumentError, CensoredOrbitError, ConfigError,
                     ConstructionError, ConvergenceError, DomainViolationError,
                     InsufficientDataError, MapParameterError, NearCriticalError,
                     SrbLabError, UnverifiedTowerError, VerificationError)
from .experiments import (SweepTable, TailRun, build_system, build_tower,
                          default_induction, load_tail_csv, run_density,
                          run_entropy, run_induce, run_sweep, run_tail)
from .maps import (Interval, MapSystem, NondegeneracyReport, make_map,
                   misiurewicz_parameter, nondegeneracy_probe)
from .measures import (Grid1D, Grid2D, GridDensity, UlamOperator, interval_measure,
                       l1_distance, lebesgue_density, one_step_ulam, spread_measure,
                       stationary_density, ulam_matrix)
from .orbits import (TailFit, TailParams, TailProfile, expansion_time, fit_tail_decay,
                     lyapunov_exponents, recurrence_time, tail_profile)
from .reporting import emit_svg, read_csv, write_csv
from .rng import StreamKey, dither, stream
from .towers import (CellTable, InducedMarkovMap, VerificationReport, first_return_map,
                     kac_breakdown, kac_mass, return_time_l1_distance, verify_axioms)

__version__ = "0.1.0"
