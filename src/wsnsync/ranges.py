"""The two ranges of the library's numeric settings, refused in one form:
"<name> must be finite and <range>, got <value>"."""
from __future__ import annotations

import math


def require(rule: str, **values: float) -> None:
    """ValueError for the first of ``values`` outside ``rule``: "positive"
    is (0, inf) and "nonnegative" [0, inf); NaN is outside both."""
    for name, value in values.items():
        if not (value > 0 or rule == "nonnegative" and value == 0) or value == math.inf:
            raise ValueError(f"{name} must be finite and {rule}, got {value}")
