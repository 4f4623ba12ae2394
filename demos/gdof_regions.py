"""High-power scaling: generalized degrees of freedom per scheme.

All rates are normalized by 0.5*log2(snr), the capacity of a clean
direct link, and the cross link scales as snr**alpha while the key rate
scales as gamma times the normalization. Each scheme then has a
polytope of achievable normalized pairs (d1, d2).
"""

import numpy as np

from zickey import (SCHEMES, GdofParams, gdof_region, no_secrecy_gdof,
                    subset_of)


def show(reg, indent="    "):
    for x, y in reg.vertices:
        print(f"{indent}({x:.3f}, {y:.3f})")


print("alpha = 0.5, gamma = 0.2, eta = 0.6 (key split between layers):")
gp = GdofParams(alpha=0.5, gamma=0.2, eta=0.6)
for name in SCHEMES:
    reg = gdof_region(gp, name)
    print(f"  {name}:")
    show(reg)
print("  no-secrecy reference:")
show(no_secrecy_gdof(gp.alpha))
print()

print("a saturated key (gamma = alpha) erases the cost of secrecy:")
for alpha in (0.3, 0.8):
    gp = GdofParams(alpha=alpha, gamma=alpha, eta=1.0)
    ks = gdof_region(gp, "key_splitting")
    ref = no_secrecy_gdof(alpha)
    same = np.array_equal(ks.vertices, ref.vertices)
    print(f"  alpha = gamma = {alpha}: key-splitting region equals the "
          f"no-secrecy polytope: {same}")
print()

print("with the key kept off the common layer (eta = 0) the sum face "
      "never binds:")
gp = GdofParams(alpha=0.4, gamma=0.9, eta=0.0)
full = gdof_region(gp, "key_splitting")
print(f"  faces: d1 <= 1, d2 <= {1.0 - gp.alpha}, d1 + d2 <= {2.0 - gp.alpha}")
print(f"  max d1 + d2 over the region: {full.max_sum:.3f} "
      f"(< {2.0 - gp.alpha}, the face is redundant)")
print()

print("padded-only schemes keep a corner but give up the interior:")
gp = GdofParams(alpha=0.5, gamma=0.2)
wc = gdof_region(gp, "key_as_wiretap")
otp = gdof_region(gp, "one_time_pad")
ks = gdof_region(GdofParams(alpha=0.5, gamma=0.2, eta=1.0), "key_splitting")
print("  key_as_wiretap:")
show(wc)
print("  one_time_pad:")
show(otp)
print(f"  both inside key_splitting at eta = 1: "
      f"{subset_of(wc, ks) and subset_of(otp, ks)}")
