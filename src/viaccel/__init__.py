"""Certified first-order solvers for strongly monotone variational
inequalities and strongly convex minimization.

The library provides: feasible-set projections and problem containers
(core), seeded benchmark generators and text serialization (problems),
one five-parameter stepper whose parameter masks are the classical methods,
plus a two-sequence minimization scheme (solvers), parameter-feasibility and
linear-rate certificates (certify), and merit/trace instrumentation with
empirical contraction checks (harness). The viaccel console script fronts
all of it.
"""

from .certify import (REGIME_OPT, REGIME_VI_RESTRICTED,
                      REGIME_VI_UNRESTRICTED, REGIMES, RateCertificate,
                      certify_opt, certify_vi_restricted,
                      certify_vi_unrestricted, default_params,
                      iteration_bound, theta_interval)
from .core import (FeasibleSet, MonotoneProblem, NonnegativeOrthant,
                   SmoothObjective, WholeSpace, as_vector, gradient_problem)
from .harness import (TRACE_FIELDS, ContractionReport, DivergenceError,
                      IterateTrace, check_contraction, finite_diff_jacobian,
                      merit, ogda_potential, opt_potential,
                      power_iteration_norm, vi_distance_potential,
                      write_trace_csv, write_trace_jsonl)
from .presets import PAPER_DEFAULT, PRESETS, TABLE, TUNED, table_preset
from .problems import (LinearOperatorSpec, estimate_constants,
                       gen_bilinear_saddle, gen_linear_vi, gen_logistic,
                       gen_quadratic, parse_problem, read_problem,
                       serialize_problem, solve_linear_reference,
                       write_problem)
from .solvers import (METHODS, OptParams, OptState, StopRule, ViParams,
                      ViState, check_run, opt_state, opt_stepper, run,
                      vi_state, vi_stepper)

__version__ = "0.1.0"
