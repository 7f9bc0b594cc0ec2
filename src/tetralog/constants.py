"""Internal table of mathematical constants.

Every closed-form constant used by the library is defined here once, as a
decimal string with >= 30 significant digits, then rounded to the nearest
double.  Sources: OEIS A000796 (pi), A002162 (ln 2), A001620 (gamma),
A002117 (zeta(3)), A006752 (Catalan's constant G).  ``EPS`` is the double
machine epsilon, 2^-52.  ``PI_DIGITS`` keeps 350 digits of pi, unrounded.
"""

import math

PI_STR = "3.14159265358979323846264338327950288"
LN2_STR = "0.693147180559945309417232121458176568"
GAMMA_STR = "0.577215664901532860606512090082402431"
ZETA3_STR = "1.20205690315959428539973816151144999"
CATALAN_STR = "0.915965594177219015054603514932384110"

PI = float(PI_STR)
PI_LO = 1.2246467991473532e-16  # pi - PI rounded, so PI + PI_LO is pi within 1.3e-32
TWO_PI = 2.0 * PI
# the first 350 digits of pi (A000796), enough to reduce any double angle
# exactly: see result.reduce_angle
PI_DIGITS = (
    "31415926535897932384626433832795028841971693993751"
    "05820974944592307816406286208998628034825342117067"
    "98214808651328230664709384460955058223172535940812"
    "84811174502841027019385211055596446229489549303819"
    "64428810975665933446128475648233786783165271201909"
    "14564856692346034861045432664821339360726024914127"
    "37245870066063155881748815209209628292540917153643"
)
LN2 = float(LN2_STR)
GAMMA = float(GAMMA_STR)
ZETA3 = float(ZETA3_STR)
CATALAN = float(CATALAN_STR)
EPS = 2.220446049250313e-16
# the spacing of the subnormal doubles, 2^-1074: a kernel floors an inexact
# value's bound here, where its relative terms underflow to 0 yet the value
# still takes a rounding or two, each within half of it
ULP0 = 2.0**-1074

SQRT7 = math.sqrt(7.0)
