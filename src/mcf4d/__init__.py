"""Mean curvature flow of immersed surfaces in R^4 = C^2.

The package simulates parametric surface patches moving by their mean
curvature vector and instruments the run with the angle, monotonicity,
blow-up rescaling, and curvature-pinching diagnostics that govern this flow:
the Kahler angle against the ambient symplectic structure, the Lagrangian
angle against the holomorphic volume form, weighted Gaussian integrals with
their decrease decomposition, parabolic rescaling around emerging
singularities, and the normalized pinching quantity delta * exp(h^2/4) (or
/2) with explicit hypothesis bookkeeping.
"""

from .errors import (BadP, BadParameter, DegenerateFrame, DegenerateMetric,
                     DenominatorFloor, FrameInconsistent, InsufficientBlowup,
                     InsufficientCoverage, KindMismatch, Mcf4dError, NodeError,
                     NonFinite, OrderTooLow, PropertyViolation, ShortTrace,
                     TimeOrder, WeightFloor, ZeroCurvature)
from .grid import ParamGrid, SurfaceState
from .geometry import (GeometryBundle, build_geometry, laplace_beltrami,
                       gradient_sq, nabla_bar_j2_from_shape)
from .flow import (FlowTrace, RunControls, SingularityVerdict, TraceScalars,
                   cfl_dt, estimate_singular_time, run_flow, step, velocity)
from .functionals import (EvolutionResidual, GaussianWeight, IdentityResidual,
                          LocalizedField, MonotonicityReport, PinchingReport,
                          area_ratio, cutoff_psi, evolution_residual,
                          gaussian_density, localized_f, monotonicity_scan,
                          pinching_check, weighted_integral_identity_check,
                          weighted_psi)
from .rescale import (RescaleRecord, rescale_flow, select_blowup_datum,
                      validate_rescaled, with_rescaled)
from .theorem import (TheoremReport, check_main_theorem, extremal_stats,
                      gradient_estimate_probe, normalize_flow)
from .scenarios import generate_scenario, run_sphere_ode, translating_trace
from .io import (read_config, read_snapshot, write_report, write_snapshot,
                 write_timeseries)

__version__ = "0.1.0"
