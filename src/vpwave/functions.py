"""Registry of the closed-form test functions used by the experiment CLI."""

import numpy as np


def _sin6sign(x):
    # sign(0) = 0; the argument vanishes only on a measure-zero set
    return np.sin(6.0 * x) + np.sign(np.sin(x + np.exp(2.0 * x)))


def _abs03(x):
    # |x|^0.3 with the continuous extension 0 at x = 0
    return np.abs(x) ** 0.3


def _runge(x):
    return 1.0 / (1.0 + 0.25 * x * x)


REGISTRY = {
    "sin": np.sin,
    "sin6sign": _sin6sign,
    "abs": np.abs,
    "abs03": _abs03,
    "runge": _runge,
}


def get_function(name: str):
    """The registered test function called ``name``, else ValueError naming the known ones."""
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown function {name!r} (known: {known})") from None
