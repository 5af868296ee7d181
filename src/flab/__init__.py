"""flab: exact computation in finite affine geometry.

Furstenberg-set verification and extremal search, the polynomial method
with multiplicities, min-entropy projection bounds, and point-flat
incidence estimates, all in exact integer/rational arithmetic.  Import the
submodules (``flab.geometry``, ``flab.cli``, ...) directly.
"""

__version__ = "0.1.0"
