"""The names of the inflation cases of ``pell.inflate``.

They live in a module of their own, which imports nothing, so that the CLI
can offer them as ``--case`` choices without loading the polynomial layers.
"""

INFLATE_DIVIDES = "divides_g_plus_1"
INFLATE_EVEN_HALF = "even_half"
INFLATE_ODD = "odd"
INFLATE_CASES = (INFLATE_DIVIDES, INFLATE_EVEN_HALF, INFLATE_ODD)
