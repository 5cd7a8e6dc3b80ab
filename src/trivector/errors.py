"""Exception types shared across the package."""


class TrivectorError(Exception):
    pass


class NotSkew(TrivectorError):
    pass


class OddSize(TrivectorError):
    pass


class Singular(TrivectorError):
    pass


class NotInvertible(TrivectorError):
    pass


class UnsupportedField(TrivectorError):
    pass


class NoCubeRoot(TrivectorError):
    pass


class BudgetExceeded(TrivectorError):
    def __init__(self, msg, count=None):
        super().__init__(msg)
        self.count = count


class WeilViolation(TrivectorError):
    pass


class SingularCurve(TrivectorError):
    pass


class CertificateFailure(TrivectorError):
    pass


class DegenerateConfiguration(TrivectorError):
    pass


class KernelDimNotOne(TrivectorError):
    pass


class FieldMismatch(TrivectorError):
    pass


class NotCharThree(TrivectorError):
    pass


class NoSolution(TrivectorError):
    pass


class Disagreement(TrivectorError):
    """A certified mathematical cross-check failed; always an implementation bug."""


class NonStableInput(TrivectorError):
    pass
