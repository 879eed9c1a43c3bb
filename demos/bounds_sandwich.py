"""Squeeze the finite-blocklength rate between converse and achievability.

For the binary benchmark at excess probability eps = 0.1, the smallest
rate any code can have (converse) and the rate at which the random-coding
construction already meets eps (achievability) pinch the Gaussian
approximation R + sqrt(V/n) Qinv(eps) from both sides, and the gap closes
as the blocklength grows.

Run:  python demos/bounds_sandwich.py            (about half a minute)
"""

import fblcrd as f

EPS = 0.1
D = 0.1

inst = f.binary_hamming_instance(a=0.5, c=0.2)
sol = f.solve_crd(inst, D)
field = f.tilted_density(sol)

print(f"first-order rate {sol.rate:.6f} nats, dispersion {field.variance:.6f}")
print(f"target excess probability eps = {EPS}\n")
print("   n    converse   second-order   achievable     gap")
previous_gap = None
for n in (200, 500, 1000, 2000):
    r_conv = f.converse_rate_bound(field, f.tilted_sum_distribution(field, n), EPS)
    r_ach, _ = f.achievable_rate_estimate(sol, n, EPS, trials=2500, seed=n)
    r_star = f.second_order_rate(n, EPS, sol.rate, field.variance)
    gap = r_ach - r_conv
    shrink = "" if previous_gap is None else f"  ({gap - previous_gap:+.4f})"
    print(f"{n:5d}   {r_conv:.6f}     {r_star:.6f}    {r_ach:.6f}   "
          f"{gap:.4f}{shrink}")
    previous_gap = gap

print("\nAt a fixed operating point the three bound evaluators answer the")
print("complementary question: how small can the failure probability be?")
n = 500
r_star = f.second_order_rate(n, EPS, sol.rate, field.variance)
query = f.FblQuery.from_rate(n, D, r_star, eps=EPS)
sums = f.tilted_sum_distribution(field, n)    # shared by the converse and forward bounds
conv = f.converse_lower(query, field, sums)
sim = f.simulate_random_code(query, sol, trials=4000, seed=7)
fwd = f.forward_bound(query, sol, field, sums, trials=512, seed=8)
print(f"\nn = {n}, rate = second-order prediction {r_star:.6f}")
print(f"converse lower bound   eps >= {conv.value:.4f}   (slack gamma {conv.gamma:.2f})")
print(f"random-coding bound    eps <= {sim.value:.4f} +- {sim.mc_stderr:.4f}")
print(f"three-term bound       eps <= {fwd.value:.4f}   terms {fwd.terms}")
