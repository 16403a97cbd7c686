"""Upper-level machinery.

The platform's problem is solved by an iterative master/subproblem
decomposition.  The master is a single-level MILP over the platform
decision (activation z, one-hot price selectors r/rs) plus a duplicated
copy of every follower's variables; each accumulated "cut" enforces,
for one enumerated placement vector per service, that the duplicated
follower cost not exceed the value certified by an LP-duality block for
that placement; a (service, placement) pair gets one block however many
cuts repeat it.  Bilinear terms (price x procurement, price x dual) are
linearized exactly over the discrete price grids with big-M constants
tracked in a registry.

Iteration: solve master (upper bound), check gap, solve each follower
exactly (SP1), re-select follower optima in the platform's favor (SP2,
lower bound), append the placement vectors chosen by SP2 as a new cut.
A repeated placement vector certifies optimality; the iteration count
can never exceed 2^J + 1.

``solve_bruteforce`` builds the same master with all 2^J placement
vectors enumerated up front, which is the reference optimum the
iterative algorithm is tested against.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from .follower import (DEFAULT_VARIANT, LeaderDecision, ModelVariant, add_follower,
                       assemble_solution, budget_cannot_bind, derived_dual_bound,
                       follower_cost, read_follower, solve_sp1)
from .model import BINARY, BigMRegistry, Expr, MilpModel, ModelStats, link_one_hot
from .solve import STATUS_OPTIMAL, SolverConfig, backend_solve_polished

INF = math.inf


class BilevelError(RuntimeError):
    pass


class Sp2Infeasible(BilevelError):
    """No jointly platform-feasible selection of follower optima exists.

    Individually optimal follower responses can oversubscribe an edge
    node; when no tie-break fits the capacity rows, the leader point is
    outside the inducible region and provides no lower bound.
    """


# -- Table-style closed-form model sizes --------------------------------


def mp_size(I, J, K, V, H, blocks):
    """Closed-form master-problem size with one (n, c) pair per block.

    n = |t_k| and c = 1 if service k's budget can bind (the block has mu1,
    pi and kappa), else 0.  The one-hot price products take V + 1 or H + 1
    rows per group; the paper's three rows per product give 2*J*(V + H - 1)
    more rows per service and 2*c*n*(V + H - 1) more per block.  Blocks
    over every node with nu, varrho = nu*z in three rows and mu1, pi, kappa
    (fixed at 0 where c = 0) have (J - n)*(I + 1) + (J - c*n)*(V + H + 2) + 3*J
    more rows and (1 - c) + (J - n)*(I + 2) + (J - c*n)*(V + H) + 2*J more
    columns per block.
    """
    n_con = 6 * J + K * (1 + 7 * J + I * (J + 2) + J * (V + H))
    n_cont = K * (1 + I + J + J * (I + V + H))
    for n, can_bind in blocks:
        c = int(can_bind)
        n_con += 2 + 2 * I + n * (I + 1) + c * n * (V + H + 2)
        n_cont += 1 + c + 2 * I + n * (I + 2) + c * n * (V + H)
    n_bin = J * (1 + V + H + K)
    return ModelStats(n_con, n_cont, n_bin)


def sp1_size(I, J):
    return ModelStats(2 + 2 * I + 3 * J + I * J, 1 + 2 * I + J + I * J, J)


def sp2_size(I, J, K):
    return ModelStats(K * (3 + 2 * I + 3 * J + I * J), K * (1 + 2 * I + J + I * J), K * J)


# -- cut bookkeeping ----------------------------------------------------


@dataclass
class Cut:
    t_vectors: tuple      # t_vectors[k][j] in {0,1}
    source: str = ""      # provenance: which subproblem produced the placements


@dataclass
class MasterModel:
    model: MilpModel
    registry: BigMRegistry
    idx: dict             # handle map: tag group -> indices; "blocks" and their "M"
    variant: ModelVariant
    tied: bool            # flat pricing ties every node's selectors to node 0's


@dataclass
class MasterSolution:
    leader: LeaderDecision
    solutions: list       # duplicated FollowerSolution per service
    theta: float
    status: str = STATUS_OPTIMAL


# the columns of one AlgorithmState trace row, in trace.csv's order
TRACE_COLUMNS = ("iteration", "UB", "LB", "gap", "wall_time", "master_nodes", "master_s")


@dataclass
class AlgorithmState:
    epsilon: float
    iteration: int = 0
    UB: float = INF
    LB: float = -INF
    cuts: list = field(default_factory=list)
    incumbent_leader: LeaderDecision | None = None
    incumbent_solutions: list | None = None
    trace: list = field(default_factory=list)
    status: str = "running"
    wall_time: float = 0.0
    linearization_worst: float = 0.0
    bigm_flags: list = field(default_factory=list)

    @property
    def gap(self):
        return relative_gap(self.UB, self.LB)

    def record(self, wall, master_stats):
        """One trace row; the master's HiGHS or branch-and-bound node count
        and engine time come from its certified result's ``stats``."""
        self.trace.append(dict(zip(TRACE_COLUMNS, (
            self.iteration, self.UB, self.LB, self.gap, wall,
            master_stats.get("nodes"), master_stats.get("wall_time")))))


def relative_gap(ub, lb):
    """(UB-LB)/max(|UB|,1); guarded so UB <= 0 cannot blow up the ratio."""
    if ub == INF or lb == -INF:
        return INF
    return (ub - lb) / max(abs(ub), 1.0)


# -- master problem builder ---------------------------------------------


def block_keys(cuts):
    """The distinct (service, placement) pairs of a cut list, in first-seen order."""
    return list(dict.fromkeys((k, tuple(int(b) for b in t))
                              for cut in cuts for k, t in enumerate(cut.t_vectors)))


def build_master(instance, cuts, variant=DEFAULT_VARIANT, flat=False):
    """Master MILP at the current cut pool (no cuts = the feasibility relaxation).

    The unmet-demand and cloud-procurement quantities are substituted
    out (q' = R - served, y0' = cloud workload + surplus), which keeps
    the model equivalent while matching the closed-form size formulas
    exactly.  Every bilinear product goes through the linearization
    toolkit, so the bundle's registry lists each one as a link; each
    duality block keeps its own links under "links".

    ``idx["blocks"]`` maps each distinct (k, t_k) of ``block_keys(cuts)``
    to one duality block: the dual of service k's fixed-placement LP at
    t_k, whose objective plus the placement charge bounds the duplicated
    follower's cost in the block's cut row.  A block holds only what t_k
    needs.  The dropped variables appear in no other row, so the feasible
    set and the LP relaxation are those of the block over every node with
    an activation dual nu_j in [0, M], varrho_j = nu_j * z_j, and mu1, pi
    and kappa fixed at 0 where a budget cannot bind:

    * A node outside t_k has no edge columns in that LP (y_j <= C_j t_j = 0
      and x_ij <= y_j), so Gamma_j, sigma_j, tau_ij, pi_j., kappa_j. and
      the d_pj and d_ed rows are left out.  In the full block, tau_ij = 0
      and Gamma_j = sigma_j large meet those rows, sigma_j has weight
      C_j t_j = 0 in the cut, tau_ij weight -a_ijk R_ik <= 0, and
      pi_jv = mu1 * r_jv meets the one-hot links at every 0 <= r_j. <= 1
      that sums to 1.
    * nu_j's term in the cut is nu_j * (t_j - z_j): at best 0 outside t_k
      and M * (1 - z_j) in t_k, at nu_j = M, also under the three rows that
      linked varrho_j at fractional z_j.  So each j in t_k adds the term
      M * (1 - z_j) to the cut row, M = ``derived_dual_bound``.
    * A service k for which ``budget_cannot_bind`` holds gets no budget
      dual mu1 and no pi or kappa.  Proof that mu1 = 0 loses no optimum:
      ``Instance.validate`` makes every price nonnegative and every grid
      increasing, so no placement costs more than P_k < B_k.  At an
      optimum of a fixed-placement LP, y0 = sum_i x0_i when p0 > 0 and
      y_j = sum_i x_ij when p_j > 0 (otherwise that spend term is 0), so
      the spend is at most p_top * D_k and the budget row is slack at
      every optimum.  The LP without its budget row therefore has the
      same value, and its dual is the block with mu1 = 0; the
      closed-node term does not use mu1.

    ``flat`` adds rows that tie every node's compute and storage selectors
    to node 0's.  The master has no other restriction: a scheme that pins
    prices builds it on an instance whose grids hold only the pinned
    levels.  ``budget_cannot_bind`` and ``derived_dual_bound`` then read
    those grids, and the proofs above and in ``repair_dual_blocks`` hold
    for every valid instance, so the optimum is that of the full grids
    with the selectors fixed.  ``avg`` pins the same level index at every
    node, one that ``flat`` can also select, so its optimum is never above
    ``flat``'s.
    """
    inst = instance
    I, J, K, V, H = inst.I, inst.J, inst.K, inst.V, inst.H
    registry = BigMRegistry()
    dual_bound = derived_dual_bound(inst)

    m = MilpModel("master", "max")
    z = [m.add_var(f"z[{j}]", BINARY) for j in range(J)]
    r = [[m.add_var(f"r[{j},{v}]", BINARY) for v in range(V)] for j in range(J)]
    rs = [[m.add_var(f"rs[{j},{h}]", BINARY) for h in range(H)] for j in range(J)]
    tp = [[m.add_var(f"t'[{j},{k}]", BINARY) for j in range(J)] for k in range(K)]

    xp, x0p, yp, g0, rho, zeta = [], [], [], [], [], []
    for k in range(K):
        xp.append([[m.add_var(f"x'[{i},{j},{k}]") for j in range(J)] for i in range(I)])
        x0p.append([m.add_var(f"x0'[{i},{k}]") for i in range(I)])
        yp.append([m.add_var(f"y'[{j},{k}]", ub=inst.C[j]) for j in range(J)])
        g0.append(m.add_var(f"g0[{k}]"))
        rho.append([[m.add_var(f"rho[{j},{v},{k}]", ub=inst.C[j]) for v in range(V)]
                    for j in range(J)])
        zeta.append([[m.add_var(f"zeta[{j},{h},{k}]", ub=1.0) for h in range(H)]
                     for j in range(J)])

    # platform block (activation-coupled and absolute capacity caps,
    # plus the one-price-per-node selections)
    for j in range(J):
        e = Expr({yp[k][j]: 1.0 for k in range(K)})
        e.add(z[j], -inst.C[j])
        m.add_constraint(e, "<=", 0.0, name=f"cap_act[{j}]", family="mp_cap_act")
    for j in range(J):
        e = Expr({tp[k][j]: inst.s[k] for k in range(K)})
        e.add(z[j], -inst.S[j])
        m.add_constraint(e, "<=", 0.0, name=f"sto_act[{j}]", family="mp_storage_act")
    for j in range(J):
        m.add_constraint({r[j][v]: 1.0 for v in range(V)}, "==", 1.0,
                         name=f"sel_p[{j}]", family="mp_price_select")
    for j in range(J):
        m.add_constraint({rs[j][h]: 1.0 for h in range(H)}, "==", 1.0,
                         name=f"sel_ps[{j}]", family="mp_sprice_select")
    for j in range(J):
        m.add_constraint({yp[k][j]: 1.0 for k in range(K)}, "<=", inst.C[j],
                         name=f"cap_tot[{j}]", family="mp_cap_total")
    for j in range(J):
        m.add_constraint({tp[k][j]: inst.s[k] for k in range(K)}, "<=", inst.S[j],
                         name=f"sto_tot[{j}]", family="mp_storage_total")

    # duplicated follower feasibility per service
    costs = []
    for k in range(K):
        s_tb = inst.s_tb(k)
        budget = Expr({g0[k]: inst.p0})
        for i in range(I):
            budget.add(x0p[k][i], inst.p0)
        if variant.placement_in_follower:
            for j in range(J):
                budget.add(tp[k][j], inst.phi[j][k])
                for v in range(V):
                    budget.add(rho[k][j][v], inst.p_grid[j][v])
                for h in range(H):
                    budget.add(zeta[k][j][h], s_tb * inst.ps_grid[j][h])
        else:
            for j in range(J):
                for v in range(V):
                    budget.add(rho[k][j][v], inst.p_grid[j][v])
        m.add_constraint(budget, "<=", inst.B[k], name=f"budget[{k}]", family="mp_budget")

        for j in range(J):
            m.add_constraint({tp[k][j]: 1.0, z[j]: -1.0}, "<=", 0.0,
                             name=f"act[{j},{k}]", family="mp_act")
        for j in range(J):
            e = Expr({xp[k][i][j]: 1.0 for i in range(I)})
            e.add(yp[k][j], -1.0)
            m.add_constraint(e, "<=", 0.0, name=f"edge[{j},{k}]", family="mp_edge")
        for j in range(J):
            m.add_constraint({yp[k][j]: 1.0, tp[k][j]: -inst.C[j]}, "<=", 0.0,
                             name=f"cap_pl[{j},{k}]", family="mp_cap_place")
        for j in range(J):
            m.add_constraint({tp[k][j]: inst.s[k]}, "<=", inst.S[j],
                             name=f"sto[{j},{k}]", family="mp_storage_node")
        for j in range(J):
            m.add_constraint({yp[k][j]: 1.0, z[j]: -inst.C[j]}, "<=", 0.0,
                             name=f"cap_open[{j},{k}]", family="mp_cap_open")
        for i in range(I):
            for j in range(J):
                m.add_constraint({xp[k][i][j]: 1.0}, "<=",
                                 inst.a[i][j][k] * inst.R[i][k],
                                 name=f"elig[{i},{j},{k}]", family="mp_elig")
        for i in range(I):
            served = Expr({x0p[k][i]: 1.0})
            for j in range(J):
                served.add(xp[k][i][j], 1.0)
            m.add_constraint(served, "<=", inst.R[i][k],
                             name=f"unmet[{i},{k}]", family="mp_unmet")
        for i in range(I):
            delay = Expr({x0p[k][i]: inst.d0[i]})
            for j in range(J):
                delay.add(xp[k][i][j], inst.d[i][j])
            m.add_constraint(delay, "<=", inst.Dmax[k] * inst.R[i][k],
                             name=f"delay[{i},{k}]", family="mp_delay")

        # rho = y' * r and zeta = t' * rs
        for j in range(J):
            link_one_hot(m, rho[k][j], yp[k][j], r[j], "mp_rho", registry)
            link_one_hot(m, zeta[k][j], tp[k][j], rs[j], "mp_zeta", registry)

        # the duplicated follower's cost, which each of its blocks bounds
        cost = Expr(constant=sum(inst.psi[i][k] * inst.R[i][k] for i in range(I)))
        cost.add(g0[k], inst.p0)
        for i in range(I):
            cost.add(x0p[k][i], inst.w[k] * inst.d0[i] + inst.p0 - inst.psi[i][k])
            for j in range(J):
                cost.add(xp[k][i][j], inst.w[k] * inst.d[i][j] - inst.psi[i][k])
        for j in range(J):
            for v in range(V):
                cost.add(rho[k][j][v], inst.p_grid[j][v])
            if variant.placement_in_follower:
                cost.add(tp[k][j], inst.phi[j][k])
                for h in range(H):
                    cost.add(zeta[k][j][h], s_tb * inst.ps_grid[j][h])
        costs.append(cost)

    idx = {"z": z, "r": r, "rs": rs, "tp": tp, "xp": xp, "x0p": x0p, "yp": yp,
           "g0": g0, "M": dual_bound, "blocks": {}}
    for k, t in block_keys(cuts):
        idx["blocks"][(k, t)] = _add_block(m, inst, variant, registry, idx, costs[k], k, t)
    mu1s = [blk["mu1"] for blk in idx["blocks"].values() if blk["mu1"] is not None]
    if mu1s:
        registry.register("mp_kappa", dual_bound, watch=mu1s)

    # flat pricing (its rows are extra, so size audits use the unrestricted build)
    if flat:
        for j in range(1, J):
            for v in range(V):
                m.add_constraint({r[0][v]: 1.0, r[j][v]: -1.0}, "==", 0.0,
                                 name=f"flat_p[{j},{v}]", family="mp_flat")
        for j in range(1, J):
            for h in range(H):
                m.add_constraint({rs[0][h]: 1.0, rs[j][h]: -1.0}, "==", 0.0,
                                 name=f"flat_ps[{j},{h}]", family="mp_flat")

    # platform profit: placement + edge revenue - operating cost
    obj = Expr()
    for k in range(K):
        s_tb = inst.s_tb(k)
        for j in range(J):
            for v in range(V):
                obj.add(rho[k][j][v], inst.p_grid[j][v])
            obj.add(tp[k][j], inst.phi[j][k])
            for h in range(H):
                obj.add(zeta[k][j][h], s_tb * inst.ps_grid[j][h])
            obj.add(yp[k][j], -inst.c[j] / inst.C[j])
    for j in range(J):
        obj.add(z[j], -inst.f[j])
    m.set_objective(obj)

    return MasterModel(model=m.finalize(), registry=registry, idx=idx, variant=variant,
                       tied=flat)


def _add_block(m, inst, variant, registry, idx, cost, k, t):
    """Service k's duality block for placement t (see ``build_master``)."""
    I, V, H = inst.I, inst.V, inst.H
    M = idx["M"]
    on = [j for j, bit in enumerate(t) if bit]
    tag = f"{k},{len(idx['blocks'])}"
    s_tb = inst.s_tb(k)
    w = inst.w[k]
    first = m.n_vars
    mu1 = None if budget_cannot_bind(inst, k) else m.add_var(f"mu1[{tag}]", ub=M)
    blk = {
        "mu1": mu1,
        "mu2": m.add_var(f"mu2[{tag}]"),
        "Gamma": {j: m.add_var(f"Gamma[{j},{tag}]") for j in on},
        "sigma": {j: m.add_var(f"sigma[{j},{tag}]") for j in on},
        "xi": [m.add_var(f"xi[{i},{tag}]") for i in range(I)],
        "eta": [m.add_var(f"eta[{i},{tag}]", lb=-INF) for i in range(I)],
        "tau": [{j: m.add_var(f"tau[{i},{j},{tag}]") for j in on} for i in range(I)],
        "kappa": {j: [m.add_var(f"kappa[{j},{h},{tag}]", ub=M) for h in range(H)]
                  for j in on if mu1 is not None},
        "pi": {j: [m.add_var(f"pi[{j},{v},{tag}]", ub=M) for v in range(V)]
               for j in on if mu1 is not None},
    }
    blk["vars"] = slice(first, m.n_vars)

    # duplicated follower cost <= dual objective + placement charge
    row = Expr().add_expr(cost)
    if mu1 is not None:
        row.add(mu1, inst.B[k])
    for j in on:
        if variant.placement_in_follower:
            row.constant -= inst.phi[j][k]
            for h in range(H):
                row.add(idx["rs"][j][h], -s_tb * inst.ps_grid[j][h])
            if mu1 is not None:
                row.add(mu1, -inst.phi[j][k])
                for h in range(H):
                    row.add(blk["kappa"][j][h], -s_tb * inst.ps_grid[j][h])
        row.constant -= M
        row.add(idx["z"][j], M)
        row.add(blk["sigma"][j], inst.C[j])
    for i in range(I):
        row.add(blk["eta"][i], -inst.R[i][k])
        row.add(blk["xi"][i], inst.R[i][k] * inst.Dmax[k])
        for j in on:
            row.add(blk["tau"][i][j], inst.a[i][j][k] * inst.R[i][k])
    blk["row"] = m.add_constraint(row, "<=", 0.0, name=f"cut[{tag}]", family="mp_cut")

    # dual feasibility of the fixed-placement LP
    m.add_constraint({**({mu1: inst.p0} if mu1 is not None else {}), blk["mu2"]: -1.0},
                     ">=", -inst.p0, name=f"d_p0[{tag}]", family="mp_dual_p0row")
    for j in on:
        e = Expr({blk["Gamma"][j]: -1.0, blk["sigma"][j]: 1.0})
        for v in range(V):
            if mu1 is not None:
                e.add(blk["pi"][j][v], inst.p_grid[j][v])
            e.add(idx["r"][j][v], inst.p_grid[j][v])
        m.add_constraint(e, ">=", 0.0, name=f"d_pj[{j},{tag}]", family="mp_dual_pjrow")
    for i in range(I):
        m.add_constraint({blk["eta"][i]: 1.0}, "<=", inst.psi[i][k],
                         name=f"d_eta[{i},{tag}]", family="mp_dual_eta_ub")
    for i in range(I):
        m.add_constraint({blk["mu2"]: 1.0, blk["xi"][i]: inst.d0[i],
                          blk["eta"][i]: -1.0}, ">=", -w * inst.d0[i],
                         name=f"d_cl[{i},{tag}]", family="mp_dual_cloud")
    for i in range(I):
        for j in on:
            m.add_constraint({blk["Gamma"][j]: 1.0, blk["xi"][i]: inst.d[i][j],
                              blk["tau"][i][j]: 1.0, blk["eta"][i]: -1.0},
                             ">=", -w * inst.d[i][j],
                             name=f"d_ed[{i},{j},{tag}]", family="mp_dual_edge")

    # kappa = mu1 * rs and pi = mu1 * r
    first_link = len(registry.links)
    for j in blk["pi"]:
        link_one_hot(m, blk["kappa"][j], mu1, idx["rs"][j], "mp_kappa", registry)
        link_one_hot(m, blk["pi"][j], mu1, idx["r"][j], "mp_pi", registry)
    blk["links"] = registry.links[first_link:]
    return blk


def _master_leader(instance, bundle, vals, canonical=True):
    """The leader decision a master point encodes: each price is the grid
    level its selected selector names.

    A node the master closes (z_j = 0) serves no follower, and every block
    projects to the same cut whatever its price, so the engine may park
    its selectors anywhere.  With ``canonical``, such a node reports its
    grid's first level, unless flat pricing ties it to an open node's.
    """
    z = [int(round(vals[i])) for i in bundle.idx["z"]]
    free = canonical and not (bundle.tied and any(z))
    prices = {}
    for family, grids in (("r", instance.p_grid), ("rs", instance.ps_grid)):
        prices[family] = []
        for j, sel in enumerate(bundle.idx[family]):
            level = 0 if free and not z[j] else next(v for v, i in enumerate(sel) if vals[i] > 0.5)
            prices[family].append(grids[j][level])
    return LeaderDecision(p=prices["r"], ps=prices["rs"], z=z)


def extract_master_solution(instance, bundle, result):
    """The master's leader (closed nodes at canonical prices) and duplicated followers."""
    inst = instance
    I, J, K = inst.I, inst.J, inst.K
    vals = result.values
    idx = bundle.idx
    leader = _master_leader(inst, bundle, vals)
    sols = []
    for k in range(K):
        x = [[max(0.0, float(vals[idx["xp"][k][i][j]])) for j in range(J)] for i in range(I)]
        x0 = [max(0.0, float(vals[idx["x0p"][k][i]])) for i in range(I)]
        q = [max(0.0, inst.R[i][k] - x0[i] - sum(x[i][j] for j in range(J))) for i in range(I)]
        y = [max(0.0, float(vals[idx["yp"][k][j]])) for j in range(J)]
        y0 = sum(x0) + max(0.0, float(vals[idx["g0"][k]]))
        t = [int(round(vals[idx["tp"][k][j]])) for j in range(J)]
        sols.append(assemble_solution(inst, k, leader, x, x0, q, y, y0, t))
    return MasterSolution(leader=leader, solutions=sols, theta=float(result.objective),
                          status=result.status)


def linearization_audit(bundle, result):
    """Worst |U - a*b| over the product links (U, a, b) the master recorded."""
    vals = result.values
    return max((abs(vals[U] - vals[a] * vals[b]) for U, a, b in bundle.registry.links),
               default=0.0)


def repair_dual_blocks(instance, bundle, result):
    """Rewrite every duality block into canonical form.

    The dual-block variables carry no objective coefficient, so MILP
    engines may park them anywhere feasible, including at their big-M
    caps, which would poison the big-M audit.  Each block is zeroed and
    then, under the solved leader decision:

    * usable placement: set to the exact dual optimum of its LP;
    * over budget at open nodes: pushed along the mu1 ray just far
      enough for its cut row to hold;
    * a node of t_k closed: left at zero.  The row's M * (1 - z_j) terms
      are its slack, and at the zero block it needs the duplicated
      follower's cost less the placement charge.  That cost is at most
      B_k + all-drop cost + w_k * d_max * D_k, which ``derived_dual_bound``
      caps below M / 10, so the check that raises ``BilevelError`` when the
      row needs 0.99 * M or more cannot trip at that M.

    The full model is re-verified afterwards; the objective cannot move
    because certificate variables never appear in it.

    The placement LPs are solved by the built-in engine whatever the
    master's backend, on purpose: they are follower-sized, and the
    repaired blocks then do not depend on the engine that solved the
    master.  The blocks are visited grouped by service, so that one
    service's placements share one placement family (see
    ``solve_fixed_t_lp``); each block is repaired on its own, so the
    order changes no value.
    """
    from .follower import solve_fixed_t_lp

    inst = instance
    if not bundle.idx["blocks"]:
        return result
    vals = result.values
    model = bundle.model
    M = bundle.idx["M"]
    # the master's own prices: its duals must satisfy the rows at them
    leader = _master_leader(inst, bundle, vals, canonical=False)

    for (k, t), blk in sorted(bundle.idx["blocks"].items(), key=lambda item: item[0][0]):
        vals[blk["vars"]] = 0.0
        # a placement on a closed node has no LP to solve
        closed = sum(1 - leader.z[j] for j, bit in enumerate(t) if bit)
        ft = None if closed else solve_fixed_t_lp(inst, k, leader, t, bundle.variant)
        if ft is not None and ft.status == STATUS_OPTIMAL:
            d = ft.dual
            if blk["mu1"] is not None:
                vals[blk["mu1"]] = d.mu1
            vals[blk["mu2"]] = d.mu2
            vals[blk["xi"]] = d.xi
            vals[blk["eta"]] = d.eta
            for j in blk["Gamma"]:
                vals[blk["Gamma"][j]] = d.Gamma[j]
                vals[blk["sigma"][j]] = d.sigma[j]
                for i in range(inst.I):
                    vals[blk["tau"][i][j]] = d.tau[i][j]
            _set_products(vals, blk["links"])
            continue
        row = model.constraints[blk["row"]]
        need = model.constraint_activity(row, vals) - row.rhs
        if closed:
            if need + M * closed >= BigMRegistry.FLAG_RATIO * M:
                raise BilevelError(
                    f"block ({k}, {t}) needs {need + M * closed:.6g} of its closed-node "
                    f"slack M = {M:.6g}")
        elif need > 0:
            overshoot = sum(leader.placement_price(inst, k, j) * t[j]
                            for j in range(inst.J)) - inst.B[k]
            if blk["mu1"] is None or overshoot <= 0:
                raise BilevelError(f"block ({k}, {t}) infeasible with no escape direction")
            vals[blk["mu1"]] = (need + 1e-7 * (1.0 + need)) / overshoot
            _set_products(vals, blk["links"])

    worst = model.max_violation(vals)
    if worst > 1e-5:
        raise BilevelError(f"dual-block repair left a violation of {worst:.3e}")
    return result


def _set_products(vals, links):
    for U, a, b in links:
        vals[U] = vals[a] * vals[b]


def _solve_master(instance, bundle, backend, time_limit=None):
    res = backend_solve_polished(backend, bundle.model, SolverConfig(time_limit=time_limit))
    if res.status != STATUS_OPTIMAL:
        return res
    repair_dual_blocks(instance, bundle, res)
    return res


def solve_hpp(instance, variant=DEFAULT_VARIANT, backend="reference"):
    """Feasibility relaxation: follower blocks present but not optimal."""
    bundle = build_master(instance, cuts=[], variant=variant)
    res = _solve_master(instance, bundle, backend)
    if res.status != STATUS_OPTIMAL:
        raise BilevelError(f"feasibility relaxation ended with status {res.status}; "
                           "it must be solvable for every valid instance")
    return extract_master_solution(instance, bundle, res)


# -- SP2: platform-favorable tie-break ----------------------------------


# relative cushion on each opt[k] row against solver roundoff in phi_k
PHI_CUSHION = 1e-9


def build_sp2(instance, leader, phis, variant=DEFAULT_VARIANT, service_blocks_only=False):
    """Re-optimize follower solutions in the platform's favor.

    Each service is constrained to achieve its own optimum (cost <= phi_k,
    with a tiny relative cushion against solver roundoff).  With
    ``service_blocks_only`` the model carries the per-service blocks
    alone (the layout the size audit counts); otherwise the platform's
    capacity rows are included as well so the selected point is feasible
    for the full bilevel problem.
    """
    inst = instance
    J, K = inst.J, inst.K
    m = MilpModel("sp2", "max")
    handles = []
    obj = Expr(constant=-sum(inst.f[j] * leader.z[j] for j in range(J)))
    for k in range(K):
        h, cost = add_follower(m, inst, k, leader, variant)
        handles.append(h)
        m.add_constraint(cost, "<=", phis[k] + PHI_CUSHION * (1.0 + abs(phis[k])),
                         name=f"opt[{k}]", family="sp2_optimal")
        for j in range(J):
            obj.add(h["y"][j], leader.p[j] - inst.c[j] / inst.C[j])
            obj.add(h["t"][j], leader.placement_price(inst, k, j))

    if not service_blocks_only:
        # platform capacity across services, so the tie-break stays
        # feasible for the upper level
        for j in range(J):
            m.add_constraint({handles[k]["y"][j]: 1.0 for k in range(K)}, "<=",
                             leader.z[j] * inst.C[j], name=f"plat_cap[{j}]",
                             family="sp2_platform_cap")
        for j in range(J):
            m.add_constraint({handles[k]["t"][j]: inst.s[k] for k in range(K)}, "<=",
                             leader.z[j] * inst.S[j], name=f"plat_sto[{j}]",
                             family="sp2_platform_storage")
    m.set_objective(obj)
    return m.finalize(), handles


def solve_sp2(instance, leader, phis, variant=DEFAULT_VARIANT, backend="reference"):
    """Returns (per-service FollowerSolution list, Theta_o).

    HiGHS solves it with the follower profile (``SolverConfig.follower_profile``).
    """
    model, handles = build_sp2(instance, leader, phis, variant)
    res = backend_solve_polished(backend, model, SolverConfig(follower_profile=True))
    if res.status == "infeasible":
        raise Sp2Infeasible(
            f"no platform-feasible selection of follower optima (phis: {phis})")
    if res.status != STATUS_OPTIMAL:
        raise BilevelError(f"platform tie-break subproblem ended {res.status}")
    sols = [read_follower(instance, k, leader, handles[k], res.values)
            for k in range(instance.K)]
    return sols, float(res.objective)


def platform_profit(instance, leader, solutions):
    inst = instance
    J, K = inst.J, inst.K
    rev = sum(leader.p[j] * solutions[k].y[j] for j in range(J) for k in range(K))
    rev += sum(leader.placement_price(inst, k, j) * solutions[k].t[j]
               for j in range(J) for k in range(K))
    cost = sum(inst.f[j] * leader.z[j] for j in range(J))
    cost += sum(inst.c[j] / inst.C[j] * solutions[k].y[j] for j in range(J) for k in range(K))
    return rev - cost


# -- the iterative algorithm --------------------------------------------


def run_algorithm1(instance, epsilon=1e-4, variant=DEFAULT_VARIANT, backend="reference",
                   flat=False, max_iterations=None, time_limit=None):
    """Master/subproblem iteration until the relative gap closes.

    Returns an AlgorithmState whose status is "gap-closed", "duplicate-t"
    (a repeated placement vector proves optimality), or "limit".  It always
    carries an incumbent: before the first master, LB = 0 and the incumbent
    are seeded with the leader that switches every node off (z = 0 forces
    t = 0 and y = 0, so the profit is exactly 0), its prices at each grid's
    first level, and each follower's SP1 response.  ``flat`` ties every
    node's compute and storage price levels to node 0's; a scheme that
    pins prices runs on an instance whose grids hold only the pinned
    levels (see ``strategies``).
    """
    if epsilon <= 0:
        raise BilevelError("epsilon must be positive")
    if time_limit is not None and time_limit < 0:
        raise BilevelError("time limit must be nonnegative")
    if max_iterations is not None and max_iterations < 0:
        raise BilevelError("iteration limit must be nonnegative")
    inst = instance
    J = inst.J
    cap = max_iterations if max_iterations is not None else 2 ** J + 1
    state = AlgorithmState(epsilon=epsilon)
    t_start = time.perf_counter()
    deadline = t_start + time_limit if time_limit is not None else None
    scale_tol = 1e-6

    state.incumbent_leader = LeaderDecision(p=[grid[0] for grid in inst.p_grid],
                                            ps=[grid[0] for grid in inst.ps_grid], z=[0] * J)
    state.incumbent_solutions = [solve_sp1(inst, k, state.incumbent_leader, variant,
                                           backend)[0] for k in range(inst.K)]
    state.LB = 0.0

    while state.iteration < cap:
        if deadline is not None and time.perf_counter() > deadline:
            state.status = "limit"
            break
        state.iteration += 1
        bundle = build_master(inst, state.cuts, variant=variant, flat=flat)
        res = _solve_master(inst, bundle, backend)
        if res.status != STATUS_OPTIMAL:
            raise BilevelError(f"master ended with status {res.status} at iteration "
                               f"{state.iteration}")
        master = extract_master_solution(inst, bundle, res)
        state.linearization_worst = max(state.linearization_worst,
                                        linearization_audit(bundle, res))
        bundle.registry.validate(res.values)
        state.bigm_flags.extend(bundle.registry.flagged_families())

        theta = master.theta
        if state.UB != INF and theta > state.UB + scale_tol * (1.0 + abs(state.UB)):
            raise BilevelError(
                f"upper bound increased: {state.UB:.12g} -> {theta:.12g}")
        state.UB = theta

        if relative_gap(state.UB, state.LB) <= epsilon:
            state.status = "gap-closed"
            state.record(time.perf_counter() - t_start, res.stats)
            break

        leader = master.leader
        phis = []
        sp1_sols = []
        for k in range(inst.K):
            sol_k, phi_k = solve_sp1(inst, k, leader, variant, backend)
            phis.append(phi_k)
            sp1_sols.append(sol_k)

        candidates = []
        try:
            sp2_sols, theta_o = solve_sp2(inst, leader, phis, variant, backend)
            candidates.append((theta_o, sp2_sols))
        except Sp2Infeasible:
            sp2_sols = None
        # the master's own duplicated block is a valid incumbent whenever it
        # is follower-optimal under the solved prices (this closes the loop
        # when no fresh tie-break exists)
        if all(follower_cost(inst, k, leader, master.solutions[k], variant)
               <= phis[k] + 1e-6 * (1.0 + abs(phis[k])) for k in range(inst.K)):
            candidates.append((platform_profit(inst, leader, master.solutions),
                               master.solutions))

        for theta_o, sols in candidates:
            if theta_o > state.UB + scale_tol * (1.0 + abs(state.UB)):
                raise BilevelError(
                    f"lower bound {theta_o:.12g} exceeds upper bound {state.UB:.12g}: "
                    "soundness bug or a big-M constant chosen too small")
            if theta_o > state.LB:
                state.LB = theta_o
                state.incumbent_leader = leader
                state.incumbent_solutions = sols
        state.record(time.perf_counter() - t_start, res.stats)

        if relative_gap(state.UB, state.LB) <= epsilon:
            state.status = "gap-closed"
            break

        origin = "sp2" if sp2_sols is not None else "sp1-fallback"
        source = sp2_sols if sp2_sols is not None else sp1_sols
        t_new = tuple(tuple(int(v) for v in sol.t) for sol in source)
        if any(cut.t_vectors == t_new for cut in state.cuts):
            if relative_gap(state.UB, state.LB) <= max(epsilon, 1e-6):
                state.status = "duplicate-t"
                break
            raise BilevelError(
                "repeated placement vector without gap closure "
                f"(UB={state.UB:.12g}, LB={state.LB:.12g}); this contradicts the "
                "finite-termination argument and indicates a numerical problem")
        state.cuts.append(Cut(t_vectors=t_new, source=origin))
    else:
        state.status = "limit"

    state.wall_time = time.perf_counter() - t_start
    return state


def solve_bruteforce(instance, variant=DEFAULT_VARIANT, backend="reference", max_cuts=1024,
                     time_limit=None):
    """Full enumeration: the master with all 2^J placement vectors per service.

    This is the reference optimum.  Refuses (returns status "NA") when the
    cut budget K * 2^J exceeds ``max_cuts``.
    """
    inst = instance
    J, K = inst.J, inst.K
    n_cuts = K * (2 ** J)
    if n_cuts > max_cuts:
        return None, "NA"
    cuts = [Cut(t_vectors=tuple(tuple(bits) for _ in range(K)))
            for bits in itertools.product((0, 1), repeat=J)]
    bundle = build_master(inst, cuts, variant=variant)
    res = _solve_master(inst, bundle, backend, time_limit)
    if res.status == "time-limit":
        return None, "NA"
    if res.status != STATUS_OPTIMAL:
        raise BilevelError(f"full-enumeration model ended with status {res.status}")
    worst = linearization_audit(bundle, res)
    if worst > 1e-5:
        raise BilevelError(f"linearization mismatch {worst:.3e} in full enumeration")
    return extract_master_solution(inst, bundle, res), STATUS_OPTIMAL


def verify_bilevel_solution(instance, leader, solutions, variant=DEFAULT_VARIANT,
                            backend="reference"):
    """Membership report for the bilevel feasible set.

    Checks platform feasibility, per-service feasibility, and per-service
    optimality (fresh exact follower solves), each within a relative
    tolerance of 1e-6; never raises on violations, the report carries them.
    """
    tol = 1e-6
    inst = instance
    J, K = inst.J, inst.K
    report = {"ok": True, "platform": {}, "followers": [], "profit":
              platform_profit(inst, leader, solutions)}
    try:
        leader.validate(inst)
        report["platform"]["prices_on_grid"] = True
    except Exception as exc:
        report["platform"]["prices_on_grid"] = False
        report["platform"]["price_error"] = str(exc)
        report["ok"] = False
    cap_viol = max(max(0.0, sum(solutions[k].y[j] for k in range(K))
                       - leader.z[j] * inst.C[j]) for j in range(J))
    sto_viol = max(max(0.0, sum(inst.s[k] * solutions[k].t[j] for k in range(K))
                       - leader.z[j] * inst.S[j]) for j in range(J))
    report["platform"]["capacity_violation"] = cap_viol
    report["platform"]["storage_violation"] = sto_viol
    if max(cap_viol, sto_viol) > tol * (1.0 + max(inst.C)):
        report["ok"] = False
    for k in range(K):
        entry = {"service": k}
        entry["feasibility_violation"] = solutions[k].max_violation(inst, k, leader, variant)
        cost_k = follower_cost(inst, k, leader, solutions[k], variant)
        _, phi_k = solve_sp1(inst, k, leader, variant, backend)
        entry["cost"] = cost_k
        entry["phi"] = phi_k
        entry["optimality_gap"] = cost_k - phi_k
        entry["optimal"] = cost_k <= phi_k + tol * (1.0 + abs(phi_k))
        if entry["feasibility_violation"] > tol * (1.0 + inst.max_demand()) or not entry["optimal"]:
            report["ok"] = False
        report["followers"].append(entry)
    return report
