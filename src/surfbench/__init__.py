"""surfbench: a paired benchmark of scattered-data surface interpolation.

Generates a controlled factorial dataset, fits Clough-Tocher style cubic and
multiquadric RBF interpolants on identical train/test geometry, and reports
uncertainty-aware error metrics plus reproducibility artifacts.

The package root exports nothing: import from the submodules
(``surfbench.config``, ``surfbench.protocol``, ...), so a process loads only
the modules it uses.
"""

__version__ = "0.1.0"
