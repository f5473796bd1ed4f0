"""Documented size limits for the exhaustive and symbolic routines.

BRUTE_FORCE_LIMIT caps the order accepted by the brute-force generating
functions (both families have 218348 elements at order 7, which is the
largest size that enumerates in reasonable time in pure Python).

DET_POLY_MAX_N caps symbolic determinants; minor expansion allocates one
memo entry per column subset, so cost grows like 2^n.

MATRIX_BUILD_MAX_N caps the order of a named matrix (matrices.build);
the slowest family, M_PRIME, builds in 0.5 s at order 32 and 1.3 s at
order 40 on a 2-vCPU machine, and without a cap a large order runs out
of memory.
"""

BRUTE_FORCE_LIMIT = 7

DET_POLY_MAX_N = 12

MATRIX_BUILD_MAX_N = 32

MAX_N_ENV_VAR = "ASMDPP_MAX_N"
