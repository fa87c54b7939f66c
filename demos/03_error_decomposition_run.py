"""One distributed run, fully dissected.

The engine advances four processes in lockstep from zero: the distributed
iterates (one per agent), the pooled single-machine iterate on all nm
samples, the noiseless population iterate, and a pair of accumulators that
integrate sampling noise through the population dynamics.  Each recorded
iteration then splits every agent's excess risk into bias, sample
variance, and network error, and the network error further into its
population-covariance and residual parts.
"""

import numpy as np

import gossipgd as g

n, m, d, T = 8, 64, 8, 300
prob = g.make_problem(d, gamma=0.5, r=1.0, R=1.0, noise_sigma=0.5)
data = [g.sample_agent_data(prob, m, v, seed=2024) for v in range(n)]
P = g.build_gossip_matrix(g.build_topology(g.Topology("cycle", n)))
eta = 1.0 / prob.kappa_sq

result = g.run(prob, data, P, g.StepSchedule(eta), T, stride=25)

print(f"cycle of {n} agents, m={m} samples each, d={d}, eta={eta}, T={T}")
print()
header = f"{'t':>4} {'excess':>11} {'bias^2':>11} {'sample_var':>11} {'network':>11} {'popcov':>11} {'residual':>11}"
print(header)
recs = result.records  # one column per field, one row per recorded iteration
for row in zip(
    recs.t.tolist(), recs.excess.mean(axis=1), recs.bias_sq, recs.sample_var,
    recs.network_err.mean(axis=1), recs.popcov_err.mean(axis=1), recs.residual_err.mean(axis=1),
):
    print(" ".join([f"{row[0]:>4}"] + [f"{v:>11.3e}" for v in row[1:]]))
print()
print("bias falls with t; sample variance and network error climb toward")
print("noise floors set by nm and by m * (spectral gap); early stopping")
print("balances the three.")

worst = float((recs.excess - recs.risk_bound()).max())
print(f"\nexcess <= 2*bias^2 + 4*sample_var + 4*network at every record "
      f"(worst slack {worst:.2e})")

print(f"final consensus spread (worst agent vs mean): {recs.consensus_err[-1]:.3e}")

print()
print("== the deviation from the pooled run, reproduced exactly ==")
small_n, small_m, updates = 3, 3, 3
small_prob = g.make_problem(2, gamma=0.5, r=1.0, noise_sigma=0.3)
small_data = [g.sample_agent_data(small_prob, small_m, v, seed=7) for v in range(small_n)]
small_P = g.build_gossip_matrix(g.build_topology(g.Topology("cycle", small_n)))
sched = g.StepSchedule(0.1)
final_state = g.run(small_prob, small_data, small_P, sched, updates + 1).final
etas = [sched.at(k) for k in range(1, updates + 1)]
for v in range(small_n):
    engine_dev = final_state.local[v] - final_state.pooled
    path_sum = g.bruteforce_network_error(
        small_data, small_P.entries, etas, small_prob, updates, v
    )
    print(f"  agent {v}: engine {engine_dev}  path-sum {path_sum}  "
          f"gap {np.linalg.norm(engine_dev - path_sum):.1e}")
print("the path expansion enumerates every gossip walk; it is exponential in")
print("t, so it serves as an oracle for tiny instances, not as an algorithm.")
