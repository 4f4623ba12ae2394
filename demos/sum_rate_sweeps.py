"""Best sum rate as the key rate and the cross gain move.

Two sweeps on the 20 dB symmetric channel. The first holds the cross
gain at 0.6 and feeds the users a growing key; the second holds one key
bit and strengthens the cross link until the private layer dies.
"""

from zickey import (ChannelParams, GridSpec, classify_regime,
                    composite_outer_region, max_sum_rate)

grid = GridSpec(n_lambda1=13, n_lambda2=14, n_beta1=13, n_beta2=13, n_eta=9)
SCHEMES = ("key_splitting", "rate_splitting", "one_time_pad")

print("sweep 1: key rate, h21 = 0.6")
header = f"{'rk':>5s}" + "".join(f"{s:>16s}" for s in SCHEMES) + f"{'outer':>10s}"
print(header)
for rk in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
    ch = ChannelParams(1.0, 1.0, 0.6, 100.0, 100.0, rk=rk)
    row = f"{rk:5.2f}"
    for s in SCHEMES:
        row += f"{max_sum_rate(ch, s, grid):16.4f}"
    row += f"{composite_outer_region(ch).max_sum:10.4f}"
    print(row)
print("the keyed gain saturates once user 2 runs out of channel to "
      "protect.")
print()

print("sweep 2: cross gain, rk = 1")
header = f"{'h21':>5s} {'regime':>14s}"
header += "".join(f"{s:>16s}" for s in SCHEMES) + f"{'outer':>10s}"
print(header)
for h21 in (0.0, 0.3, 0.6, 0.9, 1.0, 1.2, 1.5):
    ch = ChannelParams(1.0, 1.0, h21, 100.0, 100.0, rk=1.0)
    row = f"{h21:5.2f} {classify_regime(ch):>14s}"
    for s in SCHEMES:
        row += f"{max_sum_rate(ch, s, grid):16.4f}"
    row += f"{composite_outer_region(ch).max_sum:10.4f}"
    print(row)
print("past h21 = 1 the keyed sum bound switches off and the composite "
      "region falls back to the single-user and R2 faces; the schemes "
      "keep working but user 2 leans entirely on the key.")
