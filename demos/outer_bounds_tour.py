"""Tour of the converse side: what no scheme can beat.

Three stops. First a weak-interference channel where both keyed bounds
are live, then the keyless special case, then a high-interference
channel where the keyed sum bound switches off and only the R2 bound
survives. Along the way we print the composite region whose faces the
achievability sweeps must respect.
"""

import math

from zickey import (ChannelParams, classify_regime, composite_outer_region,
                    evaluate_outer_bounds, nonsecrecy_sum_bound,
                    r2_outer_high, sum_rate_outer)

print("stop 1: weak interference, one key bit")
ch = ChannelParams(h11=1.0, h22=1.0, h21=0.6, p1=100.0, p2=100.0, rk=1.0)
ob = evaluate_outer_bounds(ch)
print(f"  regime          {classify_regime(ch)}")
print(f"  sum_keyed       {ob.sum_keyed:.4f}")
print(f"  r2_keyed        {ob.r2_keyed:.4f}")
print(f"  largest sum     {composite_outer_region(ch).max_sum:.4f}")
print("  composite region corners:")
for x, y in composite_outer_region(ch).vertices:
    print(f"    ({x:.4f}, {y:.4f})")
print()

print("stop 2: remove the key, the sum bound collapses to the keyless form")
ch0 = ChannelParams(1.0, 1.0, 0.6, 100.0, 100.0, rk=0.0)
snr, inr = 100.0, 36.0
keyless = math.log2(1.0 + snr) - 0.5 * math.log2(1.0 + inr)
print(f"  sum_rate_outer(rk=0) {sum_rate_outer(ch0):.12f}")
print(f"  closed form          {keyless:.12f}")
print(f"  exactly equal:       {sum_rate_outer(ch0) == keyless}")
print()

print("stop 3: strong cross link, the sum bound no longer applies")
chh = ChannelParams(1.0, 1.0, 1.2, 100.0, 100.0, rk=1.0)
print(f"  regime          {classify_regime(chh)}")
print(f"  sum_rate_outer  {sum_rate_outer(chh)}  (absent by design)")
print(f"  r2_outer_high   {r2_outer_high(chh):.4f}")
print()

print("as the cross link blows up, the R2 bound pins user 2 to the key rate:")
print(f"  {'inr':>8s} {'bound - rk':>12s}")
for inr in (1e3, 1e5, 1e7, 1e9):
    ch_inr = ChannelParams(1.0, 1.0, math.sqrt(inr / 100.0),
                           100.0, 100.0, rk=1.0)
    print(f"  {inr:8.0e} {r2_outer_high(ch_inr) - 1.0:12.2e}")
print()

print("optional reference without any secrecy constraint (off by default):")
print(f"  nonsecrecy_sum_bound {nonsecrecy_sum_bound(ch):.4f}")
print("  it can sit above or below the keyed bound, so the composite "
      "region only includes it on request.")
