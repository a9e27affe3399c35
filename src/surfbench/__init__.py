"""surfbench: a paired benchmark of scattered-data surface interpolation.

Generates a controlled factorial dataset, fits Clough-Tocher style cubic and
multiquadric RBF interpolants on identical train/test geometry, and reports
uncertainty-aware error metrics plus reproducibility artifacts.
"""

from .config import ExperimentConfig, load_config
from .cubic import CubicSurface, estimate_gradients, fit_cubic
from .errors import (
    DegenerateGeometry,
    DuplicateNodes,
    IllConditionedWarning,
    InsufficientNodes,
    InterpolationError,
    NonFiniteInput,
    SingularSystem,
)
from .geometry import (
    GeometryReport,
    Triangulation,
    convex_hull_polygon,
    fill_distance,
    geometry_report,
    locate,
    mesh_ratio,
    separation_distance,
    triangulate,
)
from .metrics import BootstrapCI, MetricSet, bootstrap_ci, compute_metrics
from .protocol import (
    RunTable,
    SliceTask,
    SplitPlan,
    enumerate_slices,
    execute_experiment,
    find_slice,
    make_splits,
    valid_run_counts,
)
from .rbf import RbfConfig, RbfSurface, eval_rbf, fit_rbf, kernel_mq
from .report import SummaryTable, export_pred_vs_true, export_surface_grid, summarize
from .synthdata import (
    DesignSpec,
    FactorialDataset,
    NoiseSpec,
    add_noise,
    build_design,
    eval_truth,
    generate,
)

__version__ = "0.1.0"
