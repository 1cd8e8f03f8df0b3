"""The exception every bounded computation raises when it would exceed its cap.

It lives in a module of its own so that any layer can raise it without
importing the layers above (``components`` imports ``geometry``, which
imports ``factorization``); the CLI maps it to exit code 3.
"""


class ResourceLimit(RuntimeError):
    """Raised when a computation would exceed one of the package's work caps."""
