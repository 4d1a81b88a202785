"""Half-integer indices of symplectic paths and parametrized Hamiltonian data.

The package computes the crossing-sum index of paths of symplectic
matrices (including paths with a built-in kernel family, where the sum
runs over quotient forms), assembles such paths from linearized
parametrized Hamiltonian flows, and checks on small dense instances
that the spectral flow of the associated asymptotic operator families
equals the difference of endpoint indices.
"""

from .halfint import HalfInteger
from .linalg import inertia, signature, standard_j, sym_part
from .snm import Dimensions, SnmElement
from .paths import (KernelFamily, SnmPath, SymplecticPath, catenate,
                    constant_path, conjugate, direct_sum, exp_path,
                    exp_shear_path, loop_multiply, reverse,
                    snm_direct_sum)
from .rsindex import (CrossingReport, IndexResult, crossing_form_matrix,
                      find_crossings, perturb_stratified, rs_index,
                      rs_index_stratified, snm_index)
from .coefficients import (OperatorCoefficients, PathData,
                           coefficients_from_path, loop_identity_residuals,
                           path_from_coefficients)
from .flows import (CriticalPoint, CriticalPointReport, ExtendedFlowReport,
                    HamiltonianSystem, check_critical_point,
                    extended_flow_check, linearized_flow_path,
                    parametrized_rs_index, transform_point,
                    transform_system)
from .systems import (quadratic_system, radial_system,
                      random_quadratic_system, split_system)
from .specflow import (AsymptoticKernel, FlowCrossing, MainTheoremReport,
                       OperatorFamily, SpectralFlowResult, asymptotic_kernel,
                       galerkin_matrix, main_theorem_check,
                       random_operator_family, spectral_flow_galerkin,
                       spectral_flow_matrix, split_tanh_family)
from .rabinowitz import (RabinowitzData, composite_radial_family,
                         composite_radial_path, rabinowitz_block_family,
                         rabinowitz_block_index, rabinowitz_block_path,
                         rabinowitz_index)
from .suites import (SUITE_NAMES, SuiteCheck, SuiteResult, axiom_names,
                     random_snm_path, run_axiom, run_suite,
                     stratified_corpus, suite_axioms, suite_main_theorem,
                     suite_rabinowitz, suite_roundtrip)
from .config import RunConfig

__all__ = [
    "HalfInteger", "inertia", "signature", "standard_j", "sym_part",
    "Dimensions", "SnmElement", "KernelFamily", "SnmPath", "SymplecticPath",
    "catenate", "constant_path", "conjugate", "direct_sum", "exp_path",
    "exp_shear_path", "loop_multiply", "reverse", "snm_direct_sum",
    "CrossingReport", "IndexResult", "crossing_form_matrix", "find_crossings",
    "perturb_stratified", "rs_index", "rs_index_stratified", "snm_index",
    "OperatorCoefficients", "PathData", "coefficients_from_path",
    "loop_identity_residuals", "path_from_coefficients",
    "CriticalPoint", "CriticalPointReport", "ExtendedFlowReport",
    "HamiltonianSystem", "check_critical_point", "extended_flow_check",
    "linearized_flow_path", "parametrized_rs_index", "transform_point",
    "transform_system",
    "quadratic_system", "radial_system", "random_quadratic_system",
    "split_system",
    "AsymptoticKernel", "FlowCrossing", "MainTheoremReport",
    "OperatorFamily", "SpectralFlowResult", "asymptotic_kernel",
    "galerkin_matrix", "main_theorem_check",
    "random_operator_family", "spectral_flow_galerkin",
    "spectral_flow_matrix", "split_tanh_family",
    "RabinowitzData", "composite_radial_family", "composite_radial_path",
    "rabinowitz_block_family", "rabinowitz_block_index",
    "rabinowitz_block_path", "rabinowitz_index",
    "SUITE_NAMES", "SuiteCheck", "SuiteResult", "axiom_names",
    "random_snm_path", "run_axiom", "run_suite", "stratified_corpus",
    "suite_axioms", "suite_main_theorem", "suite_rabinowitz",
    "suite_roundtrip",
    "RunConfig",
]

__version__ = "0.1.0"
