"""VQE simulation benchmark for the H2 molecule.

Statevector-simulated variational-quantum-eigensolver runs over the
built-in 4- and 2-qubit hydrogen Hamiltonians, four from-scratch
derivative-free optimizers, configurable gate/readout noise, and
similarity-based classification of measured probability vectors, with an
exact-diagonalization oracle for verification.
"""

from .ansatz import AnsatzSpec, Circuit, Gate, build_circuit, parameter_count
from .optim import OptimizerConfig, Trace, minimize
from .pauli import (
    Hamiltonian,
    MeasurementGroup,
    PauliString,
    PauliTerm,
    eigenvalues,
    group_terms,
    h2_2qubit,
    h2_4qubit,
    to_dense,
)
from .sim import (
    BitOrder,
    CountsVector,
    NoiseModel,
    apply_circuit,
    post_rotations,
    run_noisy,
    sample_counts,
)
from .similarity import (
    EnergyBands,
    batch_average_similarity,
    classify_energy,
    jt_index,
    sqrt_dot,
)
from .vqe import (
    EnergyEstimate,
    EnergyEvaluator,
    VqeConfig,
    VqeResult,
    energy_from_counts,
    evaluate_energy,
    pauli_expectation,
    resolve_bit_order,
    run_vqe,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzSpec", "BitOrder", "Circuit", "CountsVector", "EnergyBands",
    "EnergyEstimate", "EnergyEvaluator", "Gate", "Hamiltonian",
    "MeasurementGroup", "NoiseModel", "OptimizerConfig", "PauliString",
    "PauliTerm", "Trace", "VqeConfig", "VqeResult", "apply_circuit",
    "batch_average_similarity", "build_circuit", "classify_energy",
    "eigenvalues", "energy_from_counts", "evaluate_energy", "group_terms",
    "h2_2qubit", "h2_4qubit", "jt_index", "minimize", "parameter_count",
    "pauli_expectation", "post_rotations", "resolve_bit_order", "run_noisy",
    "run_vqe", "sample_counts", "sqrt_dot", "to_dense",
]
