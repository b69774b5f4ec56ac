"""Truncated bosonic towers with kernel-deformed fields and chiral twists.

Callers import from the submodules (``fockdeform.fock``, ``fockdeform.suites``,
...).  ``eval_root`` alone is bound here too: the benchmark harness's
self-test checks that its tracer patches the package-level binding.
"""

from .inner import eval_root  # noqa: F401

__version__ = "0.1.0"
