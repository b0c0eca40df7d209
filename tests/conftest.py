from pathlib import Path

import numpy as np
import pytest

from projctl.constrained_dynamics import RobotModel, RobotState, ContactSpec, build_frame
from projctl.constraint_geometry import null_projector
from projctl.models import floating_biped, planar_arm_contact, standing_pose
from projctl.runner import load_config, load_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def arm():
    return planar_arm_contact()


@pytest.fixture(scope="session")
def biped():
    return floating_biped()


ARM_HOME = np.array([-0.6, -0.5, -0.4])
BIPED_HOME = standing_pose()


def manifold_state(model, q, rng=None, scale=0.3, active=None, t=0.0):
    """Random state near q with velocity projected onto the active null space."""
    active = tuple(range(model.k)) if active is None else tuple(active)
    rng = rng or np.random.default_rng(0)
    qd_raw = scale * rng.standard_normal(model.n)
    P = null_projector(model.contact_stack(q, active)).P
    return RobotState(t=t, q=np.asarray(q, dtype=float), q_dot=P @ qd_raw, active_contacts=active)


def random_manifold_state(model, rng, home, spread=0.25, active=None, min_sv=0.2):
    """Random on-manifold state, rejecting postures whose contact stack is
    nearly singular (e.g. coincident feet) since those have no physical
    multiplier scale."""
    active_t = tuple(range(model.k)) if active is None else tuple(active)
    for _ in range(100):
        q = np.asarray(home, dtype=float) + spread * rng.standard_normal(len(home))
        A = model.contact_stack(q, active_t)
        if A.size:
            s = np.linalg.svd(A, compute_uv=False)
            if s[s > 1e-10 * max(s[0], 1e-300)].min() < min_sv:
                continue
        return manifold_state(model, q, rng=rng, active=active_t)
    raise RuntimeError("could not sample a well-conditioned state")


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def point_mass_model(mass=2.0, g=9.81):
    """Point mass in 3-d with a full 3-row contact pinning it in place.

    The contact block is -I so the multiplier equals the force the support
    applies to the mass; at rest under gravity lambda_z = m g.
    """
    n = 3
    M = mass * np.eye(n)
    contact = ContactSpec(
        jacobian=lambda q: -np.eye(3),
        jacobian_rate=lambda q, qd: np.zeros((3, 3)),
        point=lambda q: np.asarray(q, dtype=float),
        friction=0.8,
        name="support",
    )
    return RobotModel(
        mass_matrix=lambda q: M,
        coriolis_matrix=lambda q, qd: np.zeros((n, n)),
        gravity=lambda q: np.array([0.0, 0.0, -mass * g]),
        actuation=np.eye(n),
        contacts=(contact,),
        u_min=-50.0 * np.ones(n),
        u_max=50.0 * np.ones(n),
        motor_resistance=np.ones(n),
        torque_constant=np.ones(n),
        name="point_mass",
    )


def frame_at(model, state, nu=None):
    return build_frame(model, state, nu=nu)


def short_scenario(config, duration, **optimizer):
    """A bundled config's scenario cut to the given duration, with optimizer fields overridden."""
    cfg = load_config(CONFIGS / config)
    cfg["duration"] = duration
    cfg["optimizer"].update(optimizer)
    return load_scenario(cfg)
