"""Certified parameter-Lipschitz constants for dense and controlled-ODE nets.

The package computes upper bounds on the Lipschitz constants of the maps
theta -> N(theta, x) and theta -> grad N(theta, x) over a parameter ball,
checks them against empirical difference quotients, derives training step
sizes from them, and extends the same certificates to networks written as
controlled ODEs.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .activations import (
    Activation,
    ActivationEnvelope,
    make_activation,
    saturated_linear,
    sigmoid,
    smoothed_relu,
    tanh,
)
from .bounds import (
    ArchitectureSpec,
    BoundInputs,
    Certificate,
    ClosedFormBounds,
    LayerBounds,
    LossEnvelope,
    NetworkBounds,
    RefinementSearch,
    SampleMoments,
    closed_form_bounds,
    closed_form_certificate,
    derive_adagrad_params,
    input_base,
    layer_step,
    loss_certificate,
    moment_certificate,
    network_certificate,
    refine_over_layer_budgets,
)
from .code_net import (
    CodeCertificate,
    Control,
    FieldEnvelopes,
    Trajectory,
    VectorFieldSpec,
    code_certificate,
    code_loss_certificate,
    dnn_as_code,
    embed_input,
    linear_scalar_field,
    random_smooth_field,
    required_moment_order,
    solve_code,
    solve_code_batch,
    solve_first_variation,
    solve_second_variation,
    total_variation,
    verify_envelopes,
)
from .empirical import (
    FirstPass,
    LipschitzEstimate,
    WorstCasePair,
    chain_output,
    directed_affine_pair,
    empirical_grad_lipschitz,
    empirical_lipschitz,
    finite_diff_gradient,
    loss_gradient_map,
    network_jacobian_map,
    network_output_map,
    worst_case_construction,
)
from .network import (
    ForwardTrace,
    Params,
    PseudoHuber,
    Sample,
    SquaredError,
    batch_backward,
    batch_forward,
    dataset_norms,
    flatten_params,
    forward,
    grad_params,
    init_params,
    load_dataset_csv,
    loss_head_envelopes,
    param_jacobian,
    param_norm,
    project_to_ball,
    sample_in_ball,
    unflatten_params,
)
from .training import (
    NetworkObjective,
    TrainTrace,
    run_adagrad_norm,
    run_gd,
)

# every public name imported above, and none of the submodules
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
