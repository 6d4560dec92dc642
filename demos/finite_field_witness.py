#!/usr/bin/env python3
"""Walkthrough: backing the decisions with actual random matrices.

Every verdict of the decision engine is checkable by construction over
F_32003: sample the matrix of forms, restrict its determinant to random
lines to measure degrees, expand maximal minors exactly, and compare
the graded dimensions of the minor ideal against the predicted Hilbert
function.
"""

import random

from curvedet import (
    canonicalize,
    ideal_dim,
    maximal_minors,
    plane_dim,
    sample_matrix,
    verify_representable,
    verify_subscheme,
)

rng = random.Random(20240810)

print("=" * 72)
print("Degree measurement by line restriction")
print("=" * 72)
report = verify_representable([[0, 1, 10, 11], [-1, 0, 9, 10], [-5, -4, 5, 6], [-8, -7, 2, 3]], trials=5, seed=1)
print("sampled the 4x4 degree-8 matrix; observed per-line degrees:", report.observed_degrees)

report = verify_representable([[2, 3, 8], [-3, -2, 3], [-4, -3, 2]], trials=5, seed=2)
print("negative-diagonal matrix: identically zero?", all(deg is None for deg in report.observed_degrees))
print()

print("=" * 72)
print("Verification reports")
print("=" * 72)
rep = verify_representable([[1, 3], [-1, 1]], trials=5, seed=7)
print("forced factorization at degree 2:")
print("  checked:", rep.verdict_checked)
print("  observed degrees:", rep.observed_degrees, " mismatches:", rep.mismatches)
print()

Q, _, _ = canonicalize([[2, 3, 5], [1, 2, 4]])
sub = verify_subscheme(Q, 4, trials=3, seed=7)
print("22 points on a general quartic:")
print("  observed curve degrees:", sub.observed_degrees)
print("  Hilbert profile (level, predicted, observed):")
for entry in sub.hf_profile:
    print(f"    {entry['t']:2d}  {entry['predicted']:3d}  {entry['observed']:3d}")
print("  mismatches:", sub.mismatches)
print()

print("=" * 72)
print("Graded pieces of the minor ideal, by exact rank over F_p")
print("=" * 72)
A = sample_matrix(Q, rng)
minors = maximal_minors(A)
print("minor degrees:", [g.degree for g in minors])
for t in (4, 5, 6, 7):
    dim = ideal_dim(minors, t)
    print(f"  dim (ideal)_{t} = {dim}   (so HF = {plane_dim(t) - dim})")
print()
print("the unique quartic through the 22 points is the t = 4 line above.")
