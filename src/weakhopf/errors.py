"""Exception hierarchy.  Every mathematical failure carries the offending
basis data and the residual norm so reports can name the culprit.

Residual checks raise through weakhopf._checks.require, which fills in the
residual (the largest absolute entry of the failing table) and, where the
check asks for it, the location of the worst entry."""


class WeakHopfError(Exception):
    pass


class AlgebraError(WeakHopfError):
    def __init__(self, message, where=None, residual=None):
        self.where = where
        self.residual = residual
        parts = [message]
        if where is not None:
            parts.append(f"at {where}")
        if residual is not None:
            parts.append(f"residual {residual:.3e}")
        super().__init__(", ".join(parts))


class AssociativityViolation(AlgebraError):
    pass


class UnitViolation(AlgebraError):
    pass


class StarViolation(AlgebraError):
    pass


class NotCStar(AlgebraError):
    pass


class ParentMismatch(WeakHopfError):
    pass


class NotSelfAdjoint(AlgebraError):
    pass


class NotPositive(AlgebraError):
    pass


class Singular(AlgebraError):
    pass


class NoSolution(AlgebraError):
    pass


class AxiomViolation(AlgebraError):
    """A weak Hopf algebra axiom failed during a hard verification."""


class NoHaar(AlgebraError):
    pass


class Degenerate(AlgebraError):
    pass


class NotNormal(WeakHopfError):
    pass


class CocycleViolation(AlgebraError):
    pass


class ImplementerMismatch(AlgebraError):
    pass


class ActionAxiomViolation(AlgebraError):
    pass


class NotIndexFinite(AlgebraError):
    pass


class NotFaithful(AlgebraError):
    pass


class DimensionBudgetExceeded(WeakHopfError):
    pass


class FormatError(WeakHopfError):
    """Malformed input record (JSON shape problems, not mathematics)."""
