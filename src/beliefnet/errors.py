"""Exception types shared across the toolkit."""


class BeliefnetError(Exception):
    """Base class for all beliefnet errors."""

    def __reduce__(self):
        # pickled by worker processes; rebuilt without __init__, whose
        # signature varies: ``args`` holds the message, __dict__ the attributes
        return type(self).__new__, (type(self),), {"args": self.args, **self.__dict__}


class CycleDetected(BeliefnetError):
    """A directed cycle was found where a DAG was required."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        path = " -> ".join(self.cycle + self.cycle[:1])
        super().__init__(f"cycle detected: {path}")


class UnknownVariable(BeliefnetError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown variable: {name!r}")


class UnknownLevel(BeliefnetError):
    def __init__(self, variable, level):
        self.variable = variable
        self.level = level
        super().__init__(f"variable {variable!r} has no level {level!r}")


class MalformedFile(BeliefnetError):
    """A model, data, or config file failed to parse or validate.

    ``position`` is a human-readable location: "line L, column C" for syntax
    errors, a dotted key path for structural ones.
    """

    def __init__(self, path, position, reason):
        self.path = str(path)
        self.position = position
        self.reason = reason
        super().__init__(f"{self.path}: {position}: {reason}")


class VersionMismatch(BeliefnetError):
    def __init__(self, path, found, supported):
        self.path = str(path)
        self.found = found
        self.supported = supported
        super().__init__(
            f"{self.path}: file version {found!r} not supported (expected {supported!r})"
        )


class RaggedRow(BeliefnetError):
    """A CSV row with the wrong number of cells; ``row`` is 1-based over data
    rows, ``line`` the file line its record starts on when ``path`` is known."""

    def __init__(self, row, expected, got, path=None, line=None):
        self.row = row
        self.expected = expected
        self.got = got
        self.path = None if path is None else str(path)
        self.line = line
        where = "" if path is None else f"{self.path}: line {line}: "
        super().__init__(f"{where}row {row}: expected {expected} cells, got {got}")


class MissingColumn(BeliefnetError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"missing column: {name!r}")


class UnmappedToken(BeliefnetError):
    """``row`` is the 1-based data row of the token's first cell, when known."""

    def __init__(self, variable, token, row=None):
        self.variable = variable
        self.token = token
        self.row = row
        super().__init__(f"variable {variable!r}: unmapped token {token!r}")


class NonBinaryMember(BeliefnetError):
    def __init__(self, theme, column, levels):
        self.theme = theme
        self.column = column
        super().__init__(
            f"theme {theme!r}: member {column!r} is not a Mentioned/Not mentioned "
            f"indicator (levels: {list(levels)})"
        )


class UnassignedVariable(BeliefnetError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"variable {name!r} is not assigned to any tier")


class EmptyStrengths(BeliefnetError):
    def __init__(self):
        super().__init__("strength table has no arc with positive strength")


class ZeroProbabilityEvidence(BeliefnetError):
    def __init__(self, evidence, probability, scenario=None):
        self.evidence = evidence
        self.probability = probability
        self.scenario = scenario
        where = f"scenario {scenario!r}: " if scenario else ""
        super().__init__(
            f"{where}evidence has probability {probability!r} (treated as zero)"
        )


class DegenerateTarget(BeliefnetError):
    def __init__(self, variable):
        self.variable = variable
        super().__init__(f"target {variable!r} has zero variance in every state")


class SaturatedParameter(BeliefnetError):
    """A CPT entry that cannot be co-varied: the rest of its row does not sum
    to 1 - theta (an entry equal to 1 leaves nothing to scale)."""

    def __init__(self, param):
        self.param = param
        super().__init__(
            f"parameter {param}: the rest of its row does not sum to 1 - theta; "
            "proportional co-variation is undefined"
        )


class BootstrapError(BeliefnetError):
    def __init__(self, replicate, cause):
        self.replicate = replicate
        self.cause = cause
        super().__init__(f"bootstrap replicate {replicate} failed: {cause}")


class InvalidQuery(BeliefnetError):
    pass


class WorkspaceError(BeliefnetError):
    pass
