"""Clifford proxy-circuit benchmarking toolkit.

Predicts the process fidelity and worst-case (diamond-norm) error of
layered circuits from efficiently simulatable Clifford stand-ins, and
provides the estimation protocols to measure those fidelities in a
SPAM-robust way: direct fidelity estimation with scrambled references or
readout mitigation, layer-fidelity decay fits, and linear cross-entropy,
all at exact-simulation scale with deterministic seeding.
"""

__version__ = "0.1.0"

from .pauli import (  # noqa: F401
    PauliChannel,
    PauliString,
    commutes,
    multiply,
    sample_uniform_nonidentity,
)
from .clifford import (  # noqa: F401
    CliffordTableau,
    NotCliffordError,
    OneQubitClifford,
    compose,
    conjugate,
    from_gate,
    one_qubit_cliffords,
)
from .circuits import (  # noqa: F401
    BrickworkSpec,
    CliffordGate1Q,
    EulerGate1Q,
    LayeredCircuit,
    OneQubitLayer,
    TwoQubitLayer,
    cliffordize,
    haar_su2,
    pauli_twirl,
    sample_brickwork,
    sample_periodic,
    scrambling_circuit,
)
from .noise import (  # noqa: F401
    FoldSizeError,
    GateNoise,
    NoiseBudget,
    NoiseModel,
    SpamModel,
    cliffordization_infidelities,
    fold_to_end,
    process_infidelities_exact,
    process_infidelity_exact,
    sample_error_model,
)
from .dense import (  # noqa: F401
    ChoiMatrix,
    Ptm,
    circuit_ptm,
    diamond_distance,
    ideal_output_probs,
    process_fidelity,
    statevector_simulate,
)
from .estimators import (  # noqa: F401
    DfeConfig,
    FidelityEstimate,
    VolumetricCell,
    coefficient_of_variation,
    dfe,
    dfe_with_reference,
    layer_fidelity_estimate,
    readout_mitigated_dfe,
    volumetric_run,
    xeb,
)
from .seeding import seed_derive  # noqa: F401
