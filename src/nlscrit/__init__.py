"""nlscrit: variational structure and dynamics of the focusing Schrodinger
equation with combined (Sobolev-critical + subcritical) nonlinearities under
an L^2 mass constraint."""

from .constants import (Exponents, ProblemParams, Regime, Thresholds, abar,
                        classify, critical_mass_a0, f_mu_a, gn_constant,
                        rho_crit, rho_zero, sobolev_constant, threshold_K,
                        thresholds)
from .dynamics import (BlowupReport, StabilityReport, TrajectorySummary,
                       blowup_probe, evolve, stability_probe)
from .functionals import (FiberNorms, FiberReport, RegimeError,
                          StructuralAnomalyError, energy, fiber_critical_points,
                          fiber_norms, lagrange_multiplier, phi_value,
                          pohozaev, psi_second, psi_value)
from .grid import (Profile, RadialGrid, grad_l2_sq, integrate, load_profile,
                   load_profile_csv, lq_norm, lq_norm_pow, make_grid, mass,
                   rescale, resample, save_profile, surface_area)
from .minimize import (SolveReport, SubadditivityReport, boundary_scan,
                       minimize_local, subadditivity_check)
from .mountainpass import (CpoSequenceReport, LevelEstimate, MPFamilySpec,
                           PositivityProbeReport, cpo_sequence_case1,
                           cpo_sequence_case2, estimate_mp_level,
                           omega2_positivity_probe, project_to_pohozaev_minus)
from .profiles import (TrialFunction, aubin_talenti, cutoff_profile, gaussian,
                       random_trial, weinstein_decay_rate, weinstein_ground_state)

__version__ = "0.1.0"
