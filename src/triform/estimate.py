"""Result container for every numerical integral/expectation in the package."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Estimate:
    """A numerical value with an a-posteriori (or statistical) error bound.

    value       : the estimate (complex; imaginary part may be ~0 for real data)
    error_bound : nonnegative absolute bound; 0 means "exact up to fp/Gamma tolerance"
    method      : short descriptor of how the number was produced
    cost        : number of integrand/sample evaluations spent
    """

    value: complex
    error_bound: float
    method: str = ""
    cost: int = 0

    def __post_init__(self):
        if not (self.error_bound >= 0.0):
            raise ValueError(f"error_bound must be >= 0, got {self.error_bound}")
