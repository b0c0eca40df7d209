"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when an operation receives malformed or non-finite inputs."""


class TaskInconsistencyError(ValueError):
    """Raised when a task map is rank-deficient or leaves the admissible motion space."""


class ActuationError(RuntimeError):
    """Raised when the actuation matrix cannot realize the requested generalized force."""


class SolverError(RuntimeError):
    """Raised when the torque optimizer fails to produce a usable iterate."""


class SimulationError(RuntimeError):
    """Raised when a simulation leaves its validity envelope (e.g. constraint drift)."""


# the errors a run can raise once its config has loaded: the simulator prefixes
# their messages with the step, t and active set, and the CLI exits 3 on them
RUN_ERRORS = (ActuationError, InputError, SimulationError, SolverError, TaskInconsistencyError)


class ConfigError(ValueError):
    """Raised on scenario configuration problems; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
