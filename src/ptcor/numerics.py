"""The Lyapunov certificate behind every certified rate.

The observer rate rho_H (M = -H) and the local loop rates theta_i
(M = B_i K_i) and vartheta_i (M = -Ltil_i Cm_i) all come from one
equation with the fixed choice Q = I:

    P M + M^T P = -I,      rate = 1 / (2 lambda_max(P)).

It is solved by Bartels-Stewart (`scipy.linalg.solve_continuous_lyapunov`)
and the answer is checked independently of the solver: the residual must
be at most 1e-10 and P must be positive definite.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

LYAP_RESIDUAL_RTOL = 1e-10


def lyapunov_certificate(M) -> tuple[np.ndarray, float]:
    """Solve ``P M + M^T P = -I`` for Hurwitz M; return (P, 1 / (2 lambda_max(P))).

    The rate never exceeds the spectral abscissa magnitude of M.

    Raises
    ------
    ValueError
        M is not Hurwitz, or the computed P fails the residual or
        positive-definiteness check.  A non-square or non-finite M raises
        `np.linalg.LinAlgError`, which is a ValueError too.
    """
    M = np.asarray(M, dtype=float)
    # Hurwitz rules out resonant pairs: no two eigenvalues can sum to zero.
    max_re = float(np.linalg.eigvals(M).real.max())
    if max_re >= 0:
        raise ValueError(f"matrix is not Hurwitz (max Re eig = {max_re:.6g}); no rate certificate")
    I = np.eye(M.shape[0])
    P = scipy.linalg.solve_continuous_lyapunov(M.T, -I)
    P = 0.5 * (P + P.T)
    residual = np.abs(P @ M + M.T @ P + I).max()
    if residual > LYAP_RESIDUAL_RTOL:
        raise ValueError(f"Lyapunov solve residual {residual:.3e} exceeds {LYAP_RESIDUAL_RTOL:g}")
    eigs = np.linalg.eigvalsh(P)
    if eigs.min() <= 0:
        raise ValueError("Lyapunov certificate is not positive definite")
    return P, 1.0 / (2.0 * float(eigs.max()))
