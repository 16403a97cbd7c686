"""edgeprice: exact solvers for joint edge-node activation, resource pricing,
service placement, and workload allocation."""

__version__ = "0.1.0"

from .instance import (GenConfig, Instance, InstanceError, ScaleFactors,  # noqa: F401
                       apply_scale, generate, generate_with_topology, load, save)
from .model import (BigMRegistry, Expr, MilpModel, ModelError, VarDef,  # noqa: F401
                    link_one_hot)
from .solve import (SolveResult, SolverConfig, backend_solve,  # noqa: F401
                    backend_solve_polished, solve_lp, solve_milp)
from .follower import (DualSolution, FollowerSolution, LeaderDecision,  # noqa: F401
                       ModelVariant, build_follower_milp, build_kkt_follower,
                       cost_breakdown, enumerate_placements, solve_fixed_t_lp,
                       solve_kkt_follower, solve_sp1)
from .bilevel import (AlgorithmState, Cut, MasterSolution, build_master,  # noqa: F401
                      mp_size, run_algorithm1, solve_bruteforce, solve_hpp,
                      solve_sp2, sp1_size, sp2_size, verify_bilevel_solution)
from .strategies import (SweepSpec, audit_sizes, run_sweep,  # noqa: F401
                         solve_scheme)
