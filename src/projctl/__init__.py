"""Projection-based dynamics and power-optimal torque allocation.

Constrained rigid-body dynamics through null-space projectors, operational
space control in the admissible motion space, and actuator torque allocation
posed as a log-barrier QCQP that keeps contact forces strictly inside their
friction cones while minimizing motor power loss.

The per-state modules (constraint_geometry, constrained_dynamics, task_space,
control_laws, simulate, torque_qcqp) form products of 1-d and 2-d arrays with
ndarray.dot: on such small operands ``@`` (numpy's matmul gufunc) costs about
twice as much for the same BLAS call.  Only products that .dot rounds
differently keep ``@``: those with the batched (k, p, p) cone matrices G and
those with solve_barrier's column slice ``lift``.  Each ends in a
``# keeps @:`` comment naming its reason; tests/test_matmul.py enforces this.
"""

from .constrained_dynamics import (
    ConstraintFrame,
    ContactSpec,
    RobotModel,
    RobotState,
    build_frame,
    constrained_accel,
    contact_forces,
)
from .constraint_geometry import (
    null_projector,
    projector_rate,
    pseudo_inverse,
)
from .control_laws import (
    ControlCommand,
    ControllerGains,
    min_norm_actuation,
    regulation_torque,
    tracking_disturbance,
    tracking_torque,
)
from .errors import (
    ActuationError,
    ConfigError,
    InputError,
    SimulationError,
    SolverError,
    TaskInconsistencyError,
)
from .models import (
    ArmParams,
    BipedParams,
    build_model,
    floating_biped,
    make_task,
    planar_arm_contact,
    standing_pose,
)
from .simulate import (
    OptimizerSpec,
    Reference,
    Scenario,
    SimTrace,
    constant_reference,
    simulate,
    sinusoid_reference,
    step,
    switch_contacts,
)
from .task_space import (
    TaskDef,
    TaskMap,
    build_task,
    task_accel_decompose,
)
from .torque_qcqp import (
    SolverReport,
    TorqueProgram,
    assemble_cone_constraints,
    assemble_program,
    phase1_feasible_point,
    relax_program,
    solve_barrier,
)

__version__ = "0.1.0"
