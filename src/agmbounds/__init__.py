"""agmbounds: AGM, elliptic integrals, bivariate means, and the machinery
that verifies the sharp bounds L(a,b) < M(a,b) < (pi/2) L(a,b).

Pure Python throughout: the floating kernels live in agmbounds.means and
agmbounds.elliptic next to the functions that use them.

Importing the package loads none of its modules.  Each name is imported
from the module that defines it (from agmbounds.means import MeanInput),
so a program that uses only the means never loads the exact-rational
layer.
"""

__version__ = "0.1.0"
