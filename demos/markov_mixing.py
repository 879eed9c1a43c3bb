"""How memory in the source inflates (or not) the second-order penalty.

When (X_i, S_i) forms a mixing Markov chain, the single-letter quantities
are those of the stationary i.i.d. instance, but the dispersion becomes

    V_inf = var(j) + 2 sum_k cov[j_1, j_{1+k}],

computed here two independent ways: by truncating the covariance ladder,
and in closed form from the fundamental matrix Z = (I - Xi + 1 pi)^-1 as
pi . (j o (2 Z - I) j) for the centred density j.  A sticky chain pays a
visibly larger second-order penalty than its memoryless twin.

Run:  python demos/markov_mixing.py
"""

import numpy as np

import fblcrd as f

HAMMING = f.DistortionSpec([[0.0, 1.0], [1.0, 0.0]])
D = 0.1


def sticky_chain(flip):
    """Side information flips with the given probability; X depends on S."""
    s_kernel = np.array([[1 - flip, flip], [flip, 1 - flip]])
    cond = {0: np.array([0.85, 0.15]), 1: np.array([0.65, 0.35])}
    xi = np.zeros((4, 4))
    for x in range(2):
        for s in range(2):
            for x2 in range(2):
                for s2 in range(2):
                    xi[x * 2 + s, x2 * 2 + s2] = s_kernel[s, s2] * cond[s2][x2]
    return f.MarkovModel(xi, 2, 2, HAMMING)


print("=== memoryless sanity: an i.i.d. transition kernel ===")
inst = f.binary_hamming_instance(a=0.5, c=0.2)
model = f.MarkovModel(f.iid_kernel(inst.source.pmf), 2, 2, HAMMING)
qt = f.markov_tilted_quantities(model, D)
v_iid = f.tilted_density(f.solve_crd(inst, D)).variance
print(f"stationary rate mu     {qt.mu:.9f}")
print(f"lag-0 variance         {qt.ladder.lag0:.9f}")
print(f"ladder V_inf           {qt.ladder.v_inf:.9f}")
print(f"memoryless dispersion  {v_iid:.9f}   (all four coincide)")

print("\n=== mixing speed controls the penalty ===")
print(" flip    mu        lag0      V_inf(ladder)  V_inf(spectral)  "
      "second-order rate, n=500")
for flip in (0.4, 0.2, 0.1, 0.05):
    model = sticky_chain(flip)
    qt = f.markov_tilted_quantities(model, D)
    spectral = f.v_inf_spectral(model, qt)
    rate = f.second_order_rate(500, 0.1, qt.mu, qt.ladder.v_inf)
    print(f" {flip:.2f}   {qt.mu:.6f}  {qt.ladder.lag0:.6f}    "
          f"{qt.ladder.v_inf:.6f}       {spectral:.6f}        {rate:.6f}")

print("\nslower mixing (smaller flip) => larger summed covariances =>")
print("larger V_inf => a larger finite-blocklength rate at the same eps.")

model = sticky_chain(0.1)
qt = f.markov_tilted_quantities(model, D)
print("\n=== V_n marches to V_inf ===")
print("    n     V_n")
for k in range(2, 13, 2):
    n = 2 ** k
    print(f"{n:6d}   {f.v_n(qt.ladder, n):.8f}")
remainder = f.v_inf_spectral(model, qt) - qt.ladder.v_inf
print(f"  inf    {qt.ladder.v_inf:.8f}   "
      f"(ladder truncation remainder {remainder:.1e})")

print("\n=== sampled path agrees with the ladder at lag 1 ===")
path = f.sample_markov(model, 200_000, seed=9)
j = qt.field.table.reshape(-1)[path.x * 2 + path.s]
emp = float(np.mean((j[:-1] - qt.mu) * (j[1:] - qt.mu)))
print(f"empirical lag-1 covariance {emp:+.6f}   ladder {qt.ladder.covs[0]:+.6f}")
