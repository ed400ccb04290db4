"""Transport-norm toolkit for n-qudit states: the order-1 quantum
Wasserstein distance, its dual Lipschitz machinery, the classical Hamming
specialization, channel contraction bounds, and an inequality battery."""

from .errors import QW1Error
from .operators import (
    DensityMatrix,
    HermitianOperator,
    QuditLayout,
    basis_state,
    dephase,
    embed_operator,
    haar_unitary,
    load_operator,
    maximally_entangled,
    maximally_mixed,
    operator_norm,
    partial_trace,
    permute_sites,
    random_density,
    random_traceless,
    relative_entropy,
    replace_with_maximally_mixed,
    save_operator,
    tensor_product,
    trace_norm,
    von_neumann_entropy,
)
from .w1 import (
    W1Certificate,
    is_neighboring,
    lipschitz_constant,
    lipschitz_constants,
    lipschitz_estimate,
    local_hamiltonian_lipschitz_bound,
    w1_distance,
    w1_dual,
    w1_primal,
    w1_primals,
)
from .classical import (
    Distribution,
    classical_marton_bound,
    classical_w1,
    classical_w1_dual,
    diagonal_distribution,
    diagonal_state,
    hamming,
    shannon_continuity_bound,
    transport_lps,
)
from .channels import (
    Circuit,
    KrausChannel,
    amplitude_damping,
    depolarizing,
    diamond_norm,
    empirical_contraction,
    fixed_point,
    light_cone_bound,
    one_to_one_norm,
    tensor_power_contraction_bounds,
)
from .lab import (
    CheckResult,
    check_entropy_continuity,
    check_marton,
    check_pinsker,
    concentration_mgf,
    run_battery,
    spectral_tail,
)

__version__ = "0.1.0"
