"""What does a typical realizable word look like, sampled uniformly?

Uniform sampling over realizable words is exact (one integer draw decoded
as a letter string by rank), and the letter statistics concentrate: the signature is
about one sixth 0s, two thirds 1s and one sixth 2s, in contrast with the
quarter/half/quarter split produced by uniform random points.
"""

import numpy as np

from bisector_words import (
    binomial_parity_check,
    fold,
    lln_clt_experiment,
    sample_uniform_bracelet,
    sample_uniform_word,
    word_to_walk,
)

rng = np.random.default_rng(7)

print("== a few uniform words and bracelets at n=6 ==")
for _ in range(4):
    w = sample_uniform_word(6, rng)
    print("word", "".join(map(str, w)), " folded", "-".join(fold(w)))
print("bracelet:", sample_uniform_bracelet(6, rng))

print()
print("== the walk hiding inside a folded word ==")
w = sample_uniform_word(10, rng)
walk = word_to_walk(fold(w))
print("steps:", walk.steps)
print("partial sums:", walk.s)
print("zero-step counts:", walk.k, "(even and nonzero by construction)")

print()
print("== letter fractions and fluctuations at n=10000 ==")
report = lln_clt_experiment(10_000, 2_000, (0.5, 1.0), seed=11)
print("letter means:", {k: round(v, 4) for k, v in report.letter_means.items()})
print("expected:      s00=s11=1/6=0.1667, s10=s01=1/3=0.3333")
print("var of balanced-count fluctuation at c=1:", round(report.var_f0[-1], 4), "(limit 2/9 = 0.2222)")
print("var of 10-count fluctuation at c=1:      ", round(report.var_s10[-1], 4), "(limit 8/9 = 0.8889)")
print("corr of 0-letter and 1-letter counts:    ", round(report.corr_f0_f1[-1], 4), "(limit -1)")

print()
print("== the parity identity behind the sampler's letter-string counts ==")
for n in (1, 2, 5, 10):
    even, odd = binomial_parity_check(n)
    print(f"n={n:>2}: P(even)={even}  P(odd)={odd}  difference={even - odd}")
