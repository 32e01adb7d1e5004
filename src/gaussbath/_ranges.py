"""Parameter range rules, shared by the library types and the config.

Every rule lives here once.  ``problems`` returns one message per broken
rule, so the config can report every problem at once; ``check`` raises
them together as one ValueError.  Keys without a rule are ignored.
"""

import math
import numbers

# zero coupling (free evolution) is legitimate
_FLOOR = {"eta": ">= 0", "g": ">= 0"} | dict.fromkeys(
    ("n", "omega_c", "omega_ref", "xi", "omega_C", "omega0", "t_max", "tol"), "> 0"
)
_INTEGER_FROM = {"steps": 2, "N": 1}  # N = None selects the continuum
_RULED = {*_FLOOR, *_INTEGER_FROM, "r", "topology"}
# the pure state's I1 = cosh(2r)^2 overflows a double from r = 177.7923 on
R_MAX = 177.79


def _problem(key, value):
    """The message for a value that breaks its key's rule, else None."""
    if key in _INTEGER_FROM:
        low = _INTEGER_FROM[key]
        if (key == "N" and value is None) or (
            isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low
        ):
            return None
        return f"{key} must be an integer >= {low}, got {value!r}"
    if key == "topology":
        if value in ("ring", "open"):
            return None
        return f"topology must be 'ring' or 'open', got {value!r}"
    real = isinstance(value, numbers.Real)
    if key == "r":
        if not (real and math.isfinite(value) and value >= 0):
            return f"squeezing parameter r must be finite and >= 0, got {value}"
        if value > R_MAX:
            return f"squeezing parameter r must be <= {R_MAX}, where cosh(2r)^2 overflows, got {value}"
        return None
    if not real:
        return f"{key} must be a real number, got {value!r}"
    if not math.isfinite(value):
        return f"{key} must be finite, got {value}"
    floor = _FLOOR[key]
    if value < 0 if floor == ">= 0" else value <= 0:
        return f"{key} must be {floor}, got {value}"
    return None


def problems(values):
    """One message per range problem of a mapping from parameter names to values."""
    found = {key: _problem(key, value) for key, value in values.items() if key in _RULED}
    xi, omega_C = values.get("xi"), values.get("omega_C")
    # the band bottom omega_C - 2 xi must stay positive
    if xi is not None and omega_C is not None and not (found.get("xi") or found.get("omega_C")):
        if omega_C <= 2 * xi:
            found["band"] = f"omega_C={omega_C} must exceed 2*xi={2 * xi}"
    return [message for message in found.values() if message is not None]


def check(**values):
    """Raise one ValueError naming every range problem of ``values``."""
    found = problems(values)
    if found:
        raise ValueError("; ".join(found))
