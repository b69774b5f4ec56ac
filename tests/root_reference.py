"""Reference root evaluation: the continuous phase and the flip signs as separate
passes over every argument, and R(0) := 1 by gathering the nonzero arguments,
evaluating them and scattering the values back.

The package evaluates a root in one pass (:func:`inner.eval_root_at_zero_one`);
the tests require it to give these values bit for bit.
"""

import math

import numpy as np


def continuous_phase(spec, t):
    """Continuous argument of phi along the real line: -2 atan2(Im a, t - Re a) per zero."""
    t = np.asarray(t, dtype=float)
    phase = np.zeros(t.shape)
    if spec.sign == -1:
        phase += math.pi
    for a in spec.zeros:
        phase += -2.0 * np.arctan2(a.imag, t - a.real)
    return phase


def flip_sign(flips, t):
    """-1 on each closed flip interval, else 1."""
    t = np.asarray(t, dtype=float)
    sign = np.ones(t.shape)
    for lo, hi in flips:
        sign = np.where((t >= lo) & (t <= hi), -sign, sign)
    return sign


def eval_root(root, t):
    """The root at real t != 0: half the phase at |t|, conjugated for t < 0, times the flips."""
    t = np.asarray(t, dtype=float)
    if np.any(t == 0.0):
        raise ValueError("root evaluation is undefined at t = 0")
    base = np.exp(0.5j * continuous_phase(root.base, np.abs(t)))
    out = np.where(t > 0.0, base, np.conj(base)) * flip_sign(root.flips, t)
    return out if out.shape else complex(out)


def eval_root_at_zero_one(root, args):
    """:func:`eval_root` at the nonzero arguments, 1 at the zeros."""
    args = np.asarray(args, dtype=float)
    out = np.ones(args.shape, dtype=complex)
    mask = args != 0.0
    if np.any(mask):
        out[mask] = eval_root(root, args[mask])
    return out
