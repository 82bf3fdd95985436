"""Collective-spin squeezing simulation and analysis toolkit."""

from .states import (
    LocalMoments,
    MomentSet,
    SymmetricState,
    collective_from_local,
    css,
    dicke,
    gauss_sphere_grid,
    husimi_q,
    local_moments,
    moments,
    rotate,
    state_from_csv,
    state_from_json,
    state_to_csv,
    state_to_json,
)
from .metrics import (
    ParityShortcuts,
    SqueezingReport,
    bosonic_principal,
    compute_report,
    mean_spin_direction,
    min_transverse_variance,
    parity_shortcuts,
)
from .twist import (
    OAT_TRANSVERSE,
    OAT_X,
    OAT_Z,
    TAT,
    HamiltonianSpec,
    KickedTopSpec,
    evolve,
    kicked_top_trajectory,
    oat_closed_form,
    oat_concurrence,
    oat_state,
    oat_xi_s2,
    optimal_oat,
    tat_minimum,
)
from .entangle import (
    CriteriaReport,
    TwoModeMoments,
    TwoQubitRDM,
    concurrence_general,
    concurrence_symmetric,
    evaluate_criteria,
    min_pairwise_correlation,
    pairwise_correlation,
    pairwise_correlation_matrix,
    rdm_from_collective,
)
from .metrology import (
    EstimationResult,
    chi_criterion,
    ghz_y,
    qfi_rotation,
    ramsey_sensitivity,
    sss_andre,
)
from .channels import (
    ADC,
    DPC,
    PDC,
    ChannelSpec,
    SuddenDeathReport,
    apply_channel,
    decohered_squeezing,
    dephased_ramsey_optimum,
    kraus_operators,
    particle_loss,
    sudden_death,
)
from .models import (
    LMGSpec,
    QNDSpec,
    extreme_squeezing_curve,
    lmg_ground,
    lmg_thermo_xi,
    qnd_conditional,
    qnd_monte_carlo,
)

__version__ = "0.1.0"
