"""Exception types shared across the package."""


class NalearnError(Exception):
    """Base class for all package errors."""


class CycleDetected(NalearnError):
    def __init__(self, path):
        self.path = list(path)
        super().__init__(f"directed cycle through nodes {self.path}")


class MalformedParents(NalearnError):
    def __init__(self, node, reason):
        self.node = node
        super().__init__(f"node {node}: {reason}")


class NodeCountMismatch(NalearnError):
    pass


class SchemaMismatch(NalearnError):
    pass


class IndexOutOfRange(NalearnError):
    pass


class StateSpaceTooLarge(NalearnError):
    pass


class AllCandidatesUnobservable(NalearnError):
    pass


class ZeroSampleSize(NalearnError):
    pass


class InsufficientGrid(NalearnError):
    pass


class ConfigError(NalearnError):
    pass
