"""mixsearch: data-mixture search for time-series forecasting.

Windowed sensor data is embedded, the embeddings are clustered, and a
Tree-structured Parzen Estimator searches per-cluster sampling weights so
that a proxy forecaster trained on the resulting mixture minimizes
validation MSE.
"""

__version__ = "0.1.0"


class MixsearchError(Exception):
    """Base of every mixsearch error; the command line reports each as one line."""
