"""Float sums that round exactly as a loop of Python additions does."""

import numpy as np


def repeat_add(x, d, n):
    """``x`` after ``n`` in-order float additions of ``d``.

    No closed form such as ``x + n * d`` rounds the same way, but
    ``np.add.accumulate`` adds strictly in order, so one call gives the
    loop's float bit for bit.
    """
    if n <= 1:
        return x + d if n else x
    terms = np.full(n + 1, d)
    terms[0] = x
    return float(np.add.accumulate(terms)[-1])
