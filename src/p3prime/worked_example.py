"""The paper's worked example, which the acceptance suite and
``reproduce-appendix`` run on, and the suite's default seed.

Plain constants, so the CLI reads them without importing the suite and
numpy with it; ``acceptance`` re-exports them.
"""

from .equation import EquationParams

DEFAULT_SEED = 1729

REF_PARAMS = EquationParams(-0.811597, -0.0550042)
REF_CAUCHY = (0.833651, 0.288298, 0.374531)
REF_SPAN = (0.01, 2.0)
REF_ROOTS = (0.0159082, 0.0427774, 0.0901638, 0.242530, 0.511115, 1.38175)
REF_LAM3 = (-9.01149, 1.24246)  # at the two largest roots, sgn = +1 / -1
