"""Internal table of mathematical constants.

Every closed-form constant used by the library is defined here once, as a
decimal string with >= 30 significant digits, then rounded to the nearest
double.  Sources: OEIS A000796 (pi), A002162 (ln 2), A001620 (gamma),
A002117 (zeta(3)), A006752 (Catalan's constant G).  ``EPS`` is the double
machine epsilon, 2^-52.
"""

import math

PI_STR = "3.14159265358979323846264338327950288"
LN2_STR = "0.693147180559945309417232121458176568"
GAMMA_STR = "0.577215664901532860606512090082402431"
ZETA3_STR = "1.20205690315959428539973816151144999"
CATALAN_STR = "0.915965594177219015054603514932384110"

PI = float(PI_STR)
TWO_PI = 2.0 * PI
LN2 = float(LN2_STR)
GAMMA = float(GAMMA_STR)
ZETA3 = float(ZETA3_STR)
CATALAN = float(CATALAN_STR)
EPS = 2.220446049250313e-16

SQRT3 = math.sqrt(3.0)
SQRT7 = math.sqrt(7.0)
