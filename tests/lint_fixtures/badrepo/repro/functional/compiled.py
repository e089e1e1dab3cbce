"""Seeded violation for alloc-in-plan (never imported)."""

import numpy as np


def compile_op(width):
    scratch = np.zeros(width)  # depth 1: compile-time, fine

    def plan(fw, active):
        tmp = np.zeros(width)  # alloc-in-plan
        return tmp + scratch

    return plan
