"""Log-slope fits of decaying series, read by the tests only."""

import numpy as np


def fit_decay_rate(times, values) -> float:
    """Least-squares slope of log |values| over the second half of the data.

    The second half avoids transient pollution; values crossing zero are
    masked out.
    """
    times = np.asarray(times, dtype=float)
    values = np.abs(np.asarray(values, dtype=float))
    half = len(times) // 2
    t, v = times[half:], values[half:]
    mask = v > 0
    if mask.sum() < 2:
        raise ValueError("not enough nonzero samples to fit a rate")
    slope, _ = np.polyfit(t[mask], np.log(v[mask]), 1)
    return float(slope)
