"""Constructive single-hidden-layer networks with certified error bounds.

``build_square_approximator`` matches x^2 on [0,1] by a staircase of r+1
output levels {0, 1/r, ..., 1}; jumps sit at x = sqrt((k+1/2)/r), which
equalizes the error of adjacent levels, so the sup error is 1/(2r) and the
two endpoints are matched with no error at all.

``build_product_approximator`` matches x*y on [-m, m]^2 through the
polarization identity xy = (x+y)^2/2 - x^2/2 - y^2/2, realized as three
squaring staircases fed with |x+y|/(2m), |x|/m and |y|/m. An absolute-value
input costs a mirrored pair of units per staircase jump, since
sgn(|u| - a) = sgn(u - a) + sgn(-u - a) + 1 for a > 0. The (x+y) staircase
carries four times the levels of the single-input ones, which makes its jump
positions coincide with theirs on the coordinate axes and the whole network
cancel to exactly zero there; the sup error over the box is below 3*m^2*delta.
"""

from __future__ import annotations

import math

import numpy as np

from .model import SIGN, BannModel, LayerParams, forward


def build_square_approximator(r: int) -> BannModel:
    """Width-r network whose output is within 1/(2r) of x^2 on [0,1]."""
    if r < 1:
        raise ValueError("level count r must be >= 1")
    thresholds = np.sqrt((np.arange(r) + 0.5) / r)
    hidden = LayerParams(np.ones((r, 1)), -thresholds)
    output = LayerParams(np.full((1, r), 1.0 / (2 * r)), np.array([0.5]))
    return BannModel(SIGN, (hidden,), output)


def build_product_approximator(m: float, delta: float) -> BannModel:
    """Two-input network whose output is within 3*m^2*delta of x*y on
    [-m, m]^2 and exactly x*y on the coordinate axes."""
    if not (m > 0 and math.isfinite(4 * m * m)):
        raise ValueError("input magnitude bound m must be positive with 4*m*m finite")
    if not 0 < delta < 1:
        raise ValueError("per-block error budget delta must lie in (0, 1)")
    # Round the level count up to a power of two: the output coefficient
    # m^2/(4r) then comes out of an exact binary shift of m^2, which keeps
    # the axis cancellation exact in floating point whenever m^2 is dyadic.
    needed = math.ceil(1.0 / (2.0 * delta))
    r = 1 << (needed - 1).bit_length()
    g = (m * m) / (4 * r)

    weights = []
    biases = []
    coeffs = []

    def add_block(direction: tuple[float, float], levels: int, coeff: float) -> None:
        for k in range(levels):
            a = m * math.sqrt((k + 0.5) / r)
            for w in (direction, (-direction[0], -direction[1])):
                weights.append(w)
                biases.append(-a)
                coeffs.append(coeff)

    add_block((1.0, 1.0), 4 * r, g)    # (x+y)^2 block, input |x+y|/(2m)
    add_block((1.0, 0.0), r, -g)       # x^2 block, input |x|/m
    add_block((0.0, 1.0), r, -g)       # y^2 block, input |y|/m

    hidden = LayerParams(np.array(weights), np.array(biases))
    output = LayerParams(np.array(coeffs)[None, :], np.array([m * m]))
    return BannModel(SIGN, (hidden,), output)


def square_grid_error(model: BannModel, n_points: int = 100_001) -> float:
    """Max |B(x) - x^2| over an even grid on [0,1]."""
    xs = np.linspace(0.0, 1.0, n_points)
    pred = forward(model, xs[:, None])[:, 0]
    return float(np.max(np.abs(pred - xs * xs)))


def product_grid_error(model: BannModel, m: float, n_points: int = 300) -> float:
    """Max |B(x,y) - x*y| over an n x n grid on [-m, m]^2."""
    axis = np.linspace(-m, m, n_points)
    xx, yy = np.meshgrid(axis, axis)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    pred = forward(model, pts)[:, 0]
    return float(np.max(np.abs(pred - pts[:, 0] * pts[:, 1])))
