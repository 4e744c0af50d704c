"""Cross-verification suite for the lowest-order SWKB quantization condition.

Three independent routes to the spectrum of H_- = -hbar^2 d^2/dx^2 + V_-:

* real-axis quadrature of the SWKB integral (:mod:`susywkb.swkb`),
* complex contour/residue decomposition (:mod:`susywkb.contours`), its
  levels solved on the closed-form QHJ pole sum (:mod:`susywkb.qhj`),
* a Numerov shooting oracle (:mod:`susywkb.numerov`),

over a catalog of solvable and non-solvable superpotentials
(:mod:`susywkb.catalog`).
"""

from .catalog import (CATALOG_IDS, EXACT_IDS, NONEXACT_IDS, PotentialSpec,
                      bound_state_count, catalog_list, closed_form_energy,
                      get_spec, spec_from_json)
from .contours import (ContourDecomposition, DefectReport, SingularityCensus,
                       census, decompose, defect_report,
                       infinity_contribution, pole_contribution,
                       quantize_by_contours, residue_table)
from .cpoly import Polynomial, RationalFunction, find_roots
from .errors import (ConvergenceError, DomainError, SusyWkbError,
                     UnboundEnergyError)
from .numerov import (GridSolution, dump_wavefunction, grid_solution,
                      numerov_eigenvalue, qhj_residual, quantum_action)
from .swkb import (QuantizationResult, TurningPoints, quantize_by_poles,
                   solve_level, swkb_integral, turning_points)

__version__ = "0.1.0"

__all__ = [
    "CATALOG_IDS", "ContourDecomposition", "ConvergenceError",
    "DefectReport", "DomainError", "EXACT_IDS",
    "GridSolution", "NONEXACT_IDS", "Polynomial", "PotentialSpec",
    "QuantizationResult", "RationalFunction", "SingularityCensus",
    "SusyWkbError", "TurningPoints", "UnboundEnergyError",
    "bound_state_count", "catalog_list", "census", "closed_form_energy",
    "decompose", "defect_report", "dump_wavefunction", "find_roots",
    "get_spec", "grid_solution", "infinity_contribution",
    "numerov_eigenvalue", "pole_contribution", "qhj_residual",
    "quantize_by_contours", "quantize_by_poles", "quantum_action",
    "residue_table", "solve_level",
    "spec_from_json", "swkb_integral", "turning_points",
]
