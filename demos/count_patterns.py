"""Count realizable words and bracelets at small sizes.

The word count has the closed form 3^n - 2^(n+1) + 1.  The report streams
every word and counts, for each, how many of its 4n shift/reversal images
equal it, which gives its orbit size; the classes of each orbit size are
the words of that size divided by it.  The orbit histogram shows that
almost every class has the full 4n members once n grows.
"""

import math

from bisector_words import count_words, enumeration_report

print(f"{'n':>3} {'words':>8} {'bracelets':>10}  orbit sizes (size: classes)")
for n in range(3, 11):
    rep = enumeration_report(n)
    assert rep.word_count == count_words(n)
    hist = " ".join(f"{o}:{c}" for o, c in rep.orbit_size_histogram.items())
    print(f"{n:>3} {rep.word_count:>8} {rep.bracelet_count:>10}  {hist}")

print()
print("growth rate of the word count in base 3:")
for n in (6, 10, 14, 20, 30):
    print(f"  n={n:>3}: log3(count)/n = {math.log(count_words(n), 3) / n:.5f}")
