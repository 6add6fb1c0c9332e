"""Markovian open-system (L-GKS) dynamics as matrix-vector linear systems.

Three interchangeable representations of the same generator:

- :mod:`lindbladmv.vectorized` -- column-stack states and assemble the dense
  superoperator matrix in place, or propagate them through the matrix-free
  :class:`LiouvilleOperator`;
- :mod:`lindbladmv.arnoldi` -- Krylov reduction in Liouville space using only
  matrix-matrix applications of the generator;
- :mod:`lindbladmv.heisenberg` -- the adjoint picture on a closed operator
  set, propagating expectation values directly.

On top: spectral analysis, time propagation, degeneracy (exceptional-point)
detection and a scaling benchmark (:mod:`lindbladmv.analysis`), plus a CLI
(``lindbladmv``).
"""

from .analysis import (
    BenchRecord,
    DegeneracyReport,
    EigenvalueCluster,
    ModeDecomposition,
    benchmark_csv,
    detect_degeneracy,
    fit_scaling_slopes,
    observable_modes,
    run_benchmark,
)
from .arnoldi import (
    KrylovReduction,
    arnoldi_reduce,
    propagate_reduced,
    ritz_values,
)
from .errors import (
    ComputedStateError,
    ConvergenceError,
    DefectiveSpectrumError,
    DependentBasisError,
    EigenSolverError,
    ExpOverflowError,
    LindbladMVError,
    ModelFormatError,
    NotClosedError,
    NumericalError,
    StateValidationError,
    ValidationError,
)
from .heisenberg import (
    AdjointRep,
    adjoint_spectrum,
    close_set,
    expectations,
    propagate_expectations,
)
from .linalg import (
    EigenDecomposition,
    eig,
    expm,
    expm_action,
    hs_inner,
    hs_norm,
    propagate_linear,
)
from .model import (
    DensityMatrix,
    LindbladModel,
    LiouvilleOperator,
    apply_adjoint,
    apply_generator,
    duality_check,
    random_density,
    random_model,
    validate_state,
)
from .tls import TLSParams, build_tls
from .vectorized import (
    Superoperator,
    build_superoperator,
    propagate,
    spectrum,
    unvec,
    vec,
)

__all__ = [
    "AdjointRep",
    "BenchRecord",
    "ComputedStateError",
    "ConvergenceError",
    "DefectiveSpectrumError",
    "DegeneracyReport",
    "DensityMatrix",
    "DependentBasisError",
    "EigenDecomposition",
    "EigenSolverError",
    "EigenvalueCluster",
    "ExpOverflowError",
    "KrylovReduction",
    "LindbladModel",
    "LindbladMVError",
    "LiouvilleOperator",
    "ModeDecomposition",
    "ModelFormatError",
    "NotClosedError",
    "NumericalError",
    "StateValidationError",
    "Superoperator",
    "TLSParams",
    "ValidationError",
    "adjoint_spectrum",
    "apply_adjoint",
    "apply_generator",
    "arnoldi_reduce",
    "benchmark_csv",
    "build_superoperator",
    "build_tls",
    "close_set",
    "detect_degeneracy",
    "duality_check",
    "eig",
    "expectations",
    "expm",
    "expm_action",
    "fit_scaling_slopes",
    "hs_inner",
    "hs_norm",
    "observable_modes",
    "propagate",
    "propagate_expectations",
    "propagate_linear",
    "propagate_reduced",
    "random_density",
    "random_model",
    "ritz_values",
    "run_benchmark",
    "spectrum",
    "unvec",
    "validate_state",
    "vec",
]

__version__ = "0.1.0"
