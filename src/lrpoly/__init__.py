"""Exact-arithmetic library for Littlewood-Richardson polynomials of double Schur functions.

The package computes the structure coefficients c^nu_{lam,mu}(a) of
products of double Schur functions by three independent routes: the
tableau rule (the paper's Theorem and Corollary, one search over LR
tableaux), the alternating Pieri sum (the Jacobi-Trudi determinant of s_lam
folded into s_mu by the stable Pieri rule) and a brute-force polynomial
oracle, and cross-validates them against each other.
"""
