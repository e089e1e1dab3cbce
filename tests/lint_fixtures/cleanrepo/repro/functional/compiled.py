"""Clean counterpart of the alloc-in-plan fixture (never imported)."""

import numpy as np


def compile_op(width):
    scratch = np.zeros(width)  # compile-time allocation, closed over
    scratch.setflags(write=False)

    def plan(fw, active):
        return fw + scratch

    return plan
