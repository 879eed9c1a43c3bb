"""The Gaussian surprise: side information does not change the dispersion.

X ~ N(0, var_x) with side information S = X + Z at both terminals lowers
the rate-distortion function from (1/2) ln(var_x/D) to
(1/2) ln(var_x_given_s/D) - but the per-letter variance of the tilted
information density is 1/2 nats^2 no matter how informative S is, so the
second-order penalty sqrt(1/(2n)) Qinv(eps) is that of plain Gaussian
source coding.

Run:  python demos/gaussian_dispersion.py
"""

import math

import fblcrd as f

print("=== dispersion is 1/2 nats^2 for every variance pair ===")
print(" var_x  var_z   rate(D = cond/2)   sampled per-letter variance")
for var_x in (0.5, 1.0, 2.0):
    for var_z in (0.5, 1.0, 2.0):
        cond = var_x * var_z / (var_x + var_z)
        model = f.GaussianModel(var_x=var_x, var_z=var_z, distortion=cond / 2)
        samples = f.tilted_density_samples(model, 400_000,
                                           seed=(int(var_x * 2), int(var_z * 2)))
        print(f"  {var_x:4.1f}  {var_z:5.1f}   {f.gaussian_crd(model):.6f}"
              f"           {samples.var(ddof=1):.4f}")

model = f.GaussianModel(var_x=1.0, var_z=1.0, distortion=0.25)
print(f"\nworking model: var_x = var_z = 1, D = 0.25 "
      f"(conditional variance {model.var_x_given_s})")
print(f"rate {f.gaussian_crd(model):.6f} nats = (1/2) ln 2")

print("\n=== sphere-cap code: bound, exact eps and converse, eps = 0.1 ===")
print("   n    cap integral   cap code eps   converse")
for n in (100, 200, 400):
    log_m = n * f.gaussian_second_order_rate(model, n, 0.1)
    cap = f.sphere_cap_bound(model, n, log_m)
    exact = f.cap_code_eps(model, n, log_m)
    conv = f.gaussian_converse_eps(model, n, log_m)
    print(f"{n:5d}    {cap:.4f}         {exact:.4f}         {conv:.4f}")

print("\n=== geometry sanity at n = 10, codebook of 32 ===")
exact = f.cap_code_eps(model, 10, math.log(32))
empirical = f.gaussian_simulate(model, 10, math.log(32), trials=30000, seed=6)
print(f"exact cap code eps         {exact:.4f}")
print(f"sampled codewords          {empirical.mean:.4f} +- {empirical.stderr:.4f}")
