"""Exception and warning types shared across the pipeline."""


class RiskforgeError(Exception):
    """Base class for all library errors."""


# --- tabular layer ---

class MissingColumn(RiskforgeError):
    pass


class IoFailure(RiskforgeError):
    pass


# --- cohort ---

class EmptyCohortWarning(UserWarning):
    """Diagnosis filter matched nothing; pipeline continues with 0 rows."""


class MissingIntime(RiskforgeError):
    pass


class MissingDischtime(RiskforgeError):
    pass


class DuplicateCohortRow(RiskforgeError):
    """Two rows of a table looked up by key share every key (a repeated input row).

    ``table`` names the input table the rows came from, where it is known.
    """

    table = None


# --- harmonization ---

class ComponentOutOfRange(RiskforgeError):
    pass


# --- imputation ---

class AllMissingColumn(RiskforgeError):
    pass


class SingularDesignWarning(UserWarning):
    """Chained-equation regression was singular; column fell back to mean fill."""


class LayoutMismatch(RiskforgeError):
    pass


# --- model fitting ---

class SingularHessian(RiskforgeError):
    pass


class NonConvergence(RiskforgeError):
    pass


class DegenerateFold(RiskforgeError):
    pass


# --- text features ---

class EmptyCorpus(RiskforgeError):
    pass


class ConvergenceFailure(RiskforgeError):
    pass


# --- scoring / evaluation ---

class SingleClass(RiskforgeError):
    pass


class TooFewRows(RiskforgeError):
    pass


class OutOfRange(RiskforgeError):
    pass


# --- synthesis / orchestration ---

class InfeasiblePrevalence(RiskforgeError):
    pass


class MissingArtifact(RiskforgeError):
    """A file a stage reads does not exist; ``stage`` names the stage that
    needs it, and ``path`` the file."""

    def __init__(self, stage, path):
        self.stage = stage
        self.path = path
        super().__init__(f"stage '{stage}' needs {path}, which does not exist")


class ConfigInvalid(RiskforgeError):
    def __init__(self, field, reason):
        self.field = field
        self.reason = reason
        super().__init__(f"invalid config value at {field}: {reason}")
