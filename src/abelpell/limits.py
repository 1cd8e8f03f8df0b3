"""The exception every bounded computation raises when it would exceed its
cap, and the caps on polynomial degree and parenthesis nesting shared by the
input layers.

It lives in a module of its own so that any layer can raise it without
importing another layer; the CLI maps it to exit code 3.
"""

#: Largest degree a parsed polynomial, an inflated solution or a unit sought
#: by ``pell.least_unit`` may have.  The exact kernel is quadratic in the
#: degree per operation and the Pell checks run gcds on these polynomials, so
#: (x+1)^1000 already took seconds to verify; the cap is checked before the
#: polynomial is built.
MAX_DEGREE = 500

#: Deepest parenthesis nesting the parser accepts.  Each level costs the
#: recursive-descent parser five interpreter frames, so about 200 levels
#: exhaust Python's default recursion limit of 1000; the cap keeps half of it
#: for the caller.
MAX_NESTING = 100


class ResourceLimit(RuntimeError):
    """Raised when a computation would exceed one of the package's work caps."""
