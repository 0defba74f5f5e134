"""Composable finite-size secret-key rates for Gaussian-modulated
coherent-state quantum key distribution."""

__version__ = "0.1.0"


class Record:
    """Base of the package's read-only records: a subclass's __init__
    validates its arguments and fills the instance __dict__ in one update,
    which is also where a cached_property stores its value."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__
