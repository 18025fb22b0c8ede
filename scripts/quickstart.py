"""Minimal API tour: sample the equilibrium measure, evolve, estimate.

Run from the repository root:

    python3 scripts/quickstart.py
"""

import numpy as np

from gibbsdyn import rng
from gibbsdyn.flow import FlowConfig, energy_states, evolve
from gibbsdyn.gibbs import GibbsConfig, estimate, sample_rho
from gibbsdyn.observables import resolve
from gibbsdyn.spectral import GridSpec


def main() -> None:
    grid = GridSpec(d=1, M=18, s=2.0)
    print(f"grid: d={grid.d} M={grid.M} s={grid.s} (K={grid.K}, "
          f"{grid.n_modes} modes)")

    # a weighted ensemble targeting the quartic-tilted measure
    gibbs = GibbsConfig(grid=grid, N=4, gamma=0.5)
    ens = sample_rho(gibbs, count=4096, gen=rng.stream(0, 1))
    print("\nweighted equilibrium ensemble (4096 draws):")
    for name in ("l2_u", "l2_ut", "quartic"):
        values = resolve(name, grid)(grid, ens.states)
        mean, se, ess = estimate(ens, values)
        print(f"  {name:8s} = {mean:8.4f} +- {se:.4f}   (ESS {ess:7.1f})")

    # one trajectory of the full dynamics from an ensemble member
    cfg = FlowConfig(grid=grid, N=4, gamma=0.5, h=0.01, T=20.0)
    traj = evolve(ens.states[0], cfg, rng.stream(0, 2))
    # traj.states is (n_samples, 2, n_modes): row 0 is u, row 1 is u_t
    l2 = np.sum(np.abs(traj.states[:, 0]) ** 2, axis=-1)
    print(f"\ntrajectory to T={cfg.T}: {len(traj.states)} samples, "
          f"no blowup: {traj.blowup_time is None}")
    print(f"  l2_u  start {l2[0]:.4f}  end {l2[-1]:.4f}  "
          f"time-mean {np.mean(l2):.4f}")
    print(f"  energy of final state: {energy_states(grid, traj.states[-1]):.4f}")


if __name__ == "__main__":
    main()
