"""Test oracles that the library itself never runs.

check_gradient compares the compiled objective's analytic gradient with
central finite differences, nudging its points away from the Laplace
chains' kinks so that the subgradient convention is never what is measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from btvc.inference import ParameterPacking, default_packing, initial_theta
from btvc.model import HyperParams, ModelInputs
from btvc.objective import Objective


@dataclass
class GradientReport:
    max_rel_error: float
    per_point: list[float]
    kink_perturbed: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= 1e-4


def _near_kink(packing: ParameterPacking, theta: np.ndarray, gap: float) -> bool:
    params = packing.unpack(theta)
    chains = [np.concatenate([[params.b_lev[0]], np.diff(params.b_lev)])]
    if params.b_seas.size:
        first = params.b_seas[:1]
        diffs = np.vstack([first, np.diff(params.b_seas, axis=0)])
        chains.append(diffs.ravel())
    return any(np.min(np.abs(c)) < gap for c in chains if c.size)


def check_gradient(inputs: ModelInputs, hp: HyperParams,
                   packing: ParameterPacking | None = None,
                   theta0: np.ndarray | None = None, n_points: int = 20,
                   seed: int = 0, fd_step: float = 1e-5, kink_gap: float = 1e-6,
                   calibration=(), include_jacobian: bool = False) -> GradientReport:
    """Compare the analytic gradient with central finite differences.

    Points are sampled around theta0 and nudged away from Laplace kinks so
    the subgradient convention is never what is being measured.
    """
    packing = packing or default_packing(inputs)
    if theta0 is None:
        theta0 = initial_theta(inputs, hp, packing)
    f = Objective.stack([(inputs, hp, packing, calibration)], include_jacobian)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    per_point = []
    perturbed = 0
    for point in range(n_points):
        # the supplied point itself is always checked; the rest are jittered
        if point == 0:
            theta = theta0.copy()
        else:
            theta = theta0 + 0.5 * rng.standard_normal(packing.dim)
        tries = 0
        while _near_kink(packing, theta, kink_gap) and tries < 100:
            theta = theta + 1e-3 * rng.standard_normal(packing.dim)
            tries += 1
        if tries:
            perturbed += 1
        _, analytic = f(theta)
        worst = 0.0
        for i in range(packing.dim):
            h = fd_step * max(1.0, abs(theta[i]))
            up = theta.copy()
            up[i] += h
            dn = theta.copy()
            dn[i] -= h
            fd = (f(up)[0] - f(dn)[0]) / (2.0 * h)
            err = abs(analytic[i] - fd) / max(1.0, abs(analytic[i]), abs(fd))
            worst = max(worst, err)
        per_point.append(worst)
    return GradientReport(
        max_rel_error=max(per_point) if per_point else 0.0,
        per_point=per_point,
        kink_perturbed=perturbed,
    )
