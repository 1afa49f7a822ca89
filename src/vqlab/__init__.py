"""vqlab: variational quantum circuit laboratory.

Statevector simulation of a small gate set, angle-encoded variational
circuits with exact adjoint and parameter-shift gradients, quantum
Q-learning on built-in FrozenLake/CartPole environments, and
quanvolutional feature extraction for 2D maps.
"""

from .simcore import (GateOp, ResourceLimitError, Statevector, apply_gate,
                      basis_state, dense_apply_oracle, expectation_z,
                      gate_matrix, sample_z_mean, zero_state)
from .vqc import (EncodingSpec, ModelFormatError, VqcModel, deserialize_model,
                  finite_diff_grad, forward, output_states,
                  parameter_shift_grad, phi, serialize_model)
from .optim import Adam, Loss, MAE, MSE, Sgd, loss_and_grad
from .envs import CartPole, FrozenLake, make_env
from .qrl import (QrlAgent, QrlConfig, ReplayBuffer, Transition,
                  bellman_targets, evaluate, q_values, run_training,
                  select_action, train_step)
from .quanv import QuanvFilter, extract_patches, quanv_forward

__version__ = "0.1.0"
