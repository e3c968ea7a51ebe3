"""Unified power flow for multiterminal hybrid AC/DC networks.

A single Newton-Raphson problem covers the three-phase AC grid, the DC grid
and the interfacing converters, including multiple converters regulating the
DC voltage simultaneously, unbalanced operation, intentional negative-sequence
injection and a physics-based converter loss model.
"""

from .errors import (
    CaseFormatError,
    DataError,
    HybridPfError,
    InfeasibleError,
    ParameterError,
    SolverError,
    TopologyError,
)
from .losses import (
    LossBreakdown,
    LossParams,
    conduction_voltage,
    converter_losses,
    filter_losses,
    switching_current,
)
from .network import (
    AcBranch,
    AcBus,
    AcBusKind,
    BaseQuantities,
    CompoundAdmittance,
    Converter,
    ConverterMode,
    DcBranch,
    DcBus,
    DcBusKind,
    Diagnostic,
    NetworkCase,
    SequencePolicy,
    build_ac_admittance,
    build_dc_admittance,
    compound_admittance,
    validate_topology,
)
from .residuals import (
    ResidualVector,
    StateVector,
    assemble_residuals,
    compile_case,
    feasible_dc_root,
    feasible_root_from_coeffs,
    flat_start,
)
from .sequence import SequenceSet, phase_to_sequence, sequence_to_phase
from .solver import (
    IterationRecord,
    Solution,
    SolverOptions,
    assemble_jacobian,
    nr_step,
    solve,
)

__version__ = "0.1.0"
