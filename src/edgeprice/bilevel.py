"""Upper-level machinery.

The platform's problem is solved by an iterative master/subproblem
decomposition.  The master is a single-level MILP over the platform
decision (activation z, one-hot price selectors r/rs) plus a duplicated
copy of every follower's variables; each accumulated "cut" enforces,
for one enumerated placement vector per service, that the duplicated
follower cost not exceed the value certified by an LP-duality block for
that placement.  Bilinear terms (price x procurement, price x dual,
activation x dual) are linearized exactly over the discrete price grids
with big-M constants tracked in a registry.

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
from dataclasses import dataclass, field, replace

from .follower import (DEFAULT_VARIANT, LeaderDecision, ModelVariant, add_follower,
                       assemble_solution, budget_cannot_bind, derived_dual_bound,
                       follower_cost, read_follower, solve_sp1)
from .model import (BINARY, BigMRegistry, Expr, MilpModel, ModelStats, link_bin_cont,
                    link_one_hot)
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


def mp_size(I, J, K, V, H, L):
    """Closed-form master-problem size at iteration L.

    The one-hot price products take V + 1 or H + 1 rows per group; the paper's
    three rows per product give exactly 2*K*J*(V + H - 1)*(L + 1) more rows.
    """
    n_con = 6 * J + K * (J + L + (L + 1) * (1 + 6 * J + I * (J + 2) + J * (V + H)))
    n_cont = K * (1 + I + J + 2 * L * (I + 2 * J + 1) + J * (I + H + V) * (L + 1))
    n_bin = J * (1 + V + H + K)
    return ModelStats(n_con, n_cont, n_bin)


def sp1_size(I, J):
    return ModelStats(2 + 2 * I + 3 * J + I * J, 1 + 2 * I + J + I * J, J)


def sp2_size(I, J, K):
    return ModelStats(K * (3 + 2 * I + 3 * J + I * J), K * (1 + 2 * I + J + I * J), K * J)


# -- cut bookkeeping ----------------------------------------------------


@dataclass
class Cut:
    l: int
    t_vectors: tuple      # t_vectors[k][j] in {0,1}
    source: str = ""      # provenance: which subproblem produced the placements


@dataclass
class MasterModel:
    model: MilpModel
    registry: BigMRegistry
    idx: dict             # nested handle map: tag group -> indices
    cuts: list
    dims: tuple           # (I, J, K, V, H, L)
    variant: ModelVariant
    tied: tuple           # the selector families ("r", "rs") flat pricing ties across nodes


@dataclass
class MasterSolution:
    leader: LeaderDecision
    solutions: list       # duplicated FollowerSolution per service
    theta: float
    revenue_edge: float
    revenue_placement: float
    cost_operating: float
    status: str = STATUS_OPTIMAL


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
        self.trace.append({"iteration": self.iteration, "UB": self.UB, "LB": self.LB,
                           "gap": self.gap, "wall_time": wall,
                           "master_nodes": master_stats.get("nodes"),
                           "master_s": master_stats.get("wall_time")})


def relative_gap(ub, lb):
    """(UB-LB)/max(|UB|,1); guarded so UB <= 0 cannot blow up the ratio."""
    if ub == INF or lb == -INF:
        return INF
    return (ub - lb) / max(abs(ub), 1.0)


# -- master problem builder ---------------------------------------------


def build_master(instance, cuts, variant=DEFAULT_VARIANT, flat=False,
                 flat_storage=True, fixed_price=None, fixed_sprice=None, name="master"):
    """Master MILP at the current cut pool (no cuts = the feasibility relaxation).

    The unmet-demand and cloud-procurement quantities are substituted
    out (q' = R - served, y0' = cloud workload + surplus), which keeps
    the model equivalent while matching the closed-form size formulas
    exactly.  Every bilinear product goes through the linearization
    toolkit, so the bundle's registry lists each one as a link; each
    duality block keeps its own links under "links".

    Every block of a service k for which ``budget_cannot_bind`` holds has
    its budget dual mu1 fixed at 0 (pi and kappa follow through their sum
    rows).  Proof: ``Instance.validate`` makes every price nonnegative and
    every grid increasing, so no placement costs more than P_k < B_k.  At
    an optimum of a fixed-placement LP, y0 = sum_i x0_i when p0 > 0 and
    y_j = sum_i x_ij when p_j > 0 (otherwise that spend term is 0), so the
    spend is at most p_top * D_k and the budget row is slack at every
    optimum.  The LP without its budget row therefore has the same value,
    and its dual is the block with mu1 = 0.  So for every integer leader
    each block projects to the same cut, the nu escape for closed nodes
    included (it does not use mu1): the feasible set and the optimum do
    not move, only the LP relaxation tightens.  Rows, columns and the
    links' M are those of the unfixed build.
    """
    inst = instance
    I, J, K, V, H = inst.I, inst.J, inst.K, inst.V, inst.H
    L = len(cuts)
    registry = BigMRegistry()
    dual_bound = derived_dual_bound(inst)

    m = MilpModel(name, "max")
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

    duals = []
    for cut in cuts:
        per_cut = []
        for k in range(K):
            l = cut.l
            blk = {
                "mu1": m.add_var(f"mu1[{k},{l}]", ub=dual_bound),
                "mu2": m.add_var(f"mu2[{k},{l}]"),
                "nu": [m.add_var(f"nu[{j},{k},{l}]", ub=dual_bound) for j in range(J)],
                "Gamma": [m.add_var(f"Gamma[{j},{k},{l}]") for j in range(J)],
                "sigma": [m.add_var(f"sigma[{j},{k},{l}]") for j in range(J)],
                "xi": [m.add_var(f"xi[{i},{k},{l}]") for i in range(I)],
                "eta": [m.add_var(f"eta[{i},{k},{l}]", lb=-INF) for i in range(I)],
                "tau": [[m.add_var(f"tau[{i},{j},{k},{l}]") for j in range(J)] for i in range(I)],
                "kappa": [[m.add_var(f"kappa[{j},{h},{k},{l}]", ub=dual_bound) for h in range(H)]
                          for j in range(J)],
                "pi": [[m.add_var(f"pi[{j},{v},{k},{l}]", ub=dual_bound) for v in range(V)]
                       for j in range(J)],
                "varrho": [m.add_var(f"varrho[{j},{k},{l}]", ub=dual_bound) for j in range(J)],
            }
            per_cut.append(blk)
        duals.append(per_cut)

    if cuts:
        registry.register("mp_kappa", dual_bound,
                          watch=[duals[li][k]["mu1"] for li in range(L) for k in range(K)])
        registry.register("mp_varrho", dual_bound,
                          watch=[duals[li][k]["nu"][j] for li in range(L)
                                 for k in range(K) for j in range(J)])

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

    # one duality block per (service, cut)
    cut_rows = {}
    for li, cut in enumerate(cuts):
        for k in range(K):
            blk = duals[li][k]
            tl = cut.t_vectors[k]
            s_tb = inst.s_tb(k)
            w = inst.w[k]

            lhs = Expr(constant=sum(inst.psi[i][k] * inst.R[i][k] for i in range(I)))
            lhs.add(g0[k], inst.p0)
            for i in range(I):
                lhs.add(x0p[k][i], w * inst.d0[i] + inst.p0 - inst.psi[i][k])
                for j in range(J):
                    lhs.add(xp[k][i][j], w * inst.d[i][j] - inst.psi[i][k])
            for j in range(J):
                for v in range(V):
                    lhs.add(rho[k][j][v], inst.p_grid[j][v])
                if variant.placement_in_follower:
                    lhs.add(tp[k][j], inst.phi[j][k])
                    for h in range(H):
                        lhs.add(zeta[k][j][h], s_tb * inst.ps_grid[j][h])

            rhs = Expr()
            rhs.add(blk["mu1"], -inst.B[k])
            for j in range(J):
                if variant.placement_in_follower and tl[j]:
                    rhs.add_expr(Expr(constant=inst.phi[j][k]))
                    for h in range(H):
                        rhs.add(rs[j][h], s_tb * inst.ps_grid[j][h])
                    rhs.add(blk["mu1"], inst.phi[j][k])
                    for h in range(H):
                        rhs.add(blk["kappa"][j][h], s_tb * inst.ps_grid[j][h])
                if tl[j]:
                    rhs.add(blk["nu"][j], 1.0)
                    rhs.add(blk["sigma"][j], -inst.C[j])
                rhs.add(blk["varrho"][j], -1.0)
            for i in range(I):
                rhs.add(blk["eta"][i], inst.R[i][k])
                rhs.add(blk["xi"][i], -inst.R[i][k] * inst.Dmax[k])
                for j in range(J):
                    rhs.add(blk["tau"][i][j], -inst.a[i][j][k] * inst.R[i][k])

            cutrow = Expr().add_expr(lhs).add_expr(rhs, -1.0)
            row_idx = m.add_constraint(cutrow, "<=", 0.0, name=f"cut[{k},{cut.l}]",
                                       family="mp_cut")
            cut_rows.setdefault(li, {})[k] = row_idx

            # dual feasibility of the fixed-placement LP
            m.add_constraint({blk["mu1"]: inst.p0, blk["mu2"]: -1.0}, ">=", -inst.p0,
                             name=f"d_p0[{k},{cut.l}]", family="mp_dual_p0row")
            for j in range(J):
                e = Expr({blk["Gamma"][j]: -1.0, blk["sigma"][j]: 1.0})
                for v in range(V):
                    e.add(blk["pi"][j][v], inst.p_grid[j][v])
                    e.add(r[j][v], inst.p_grid[j][v])
                m.add_constraint(e, ">=", 0.0, name=f"d_pj[{j},{k},{cut.l}]",
                                 family="mp_dual_pjrow")
            for i in range(I):
                m.add_constraint({blk["eta"][i]: 1.0}, "<=", inst.psi[i][k],
                                 name=f"d_eta[{i},{k},{cut.l}]", family="mp_dual_eta_ub")
            for i in range(I):
                m.add_constraint({blk["mu2"]: 1.0, blk["xi"][i]: inst.d0[i],
                                  blk["eta"][i]: -1.0}, ">=", -w * inst.d0[i],
                                 name=f"d_cl[{i},{k},{cut.l}]", family="mp_dual_cloud")
            for i in range(I):
                for j in range(J):
                    m.add_constraint({blk["Gamma"][j]: 1.0, blk["xi"][i]: inst.d[i][j],
                                      blk["tau"][i][j]: 1.0, blk["eta"][i]: -1.0},
                                     ">=", -w * inst.d[i][j],
                                     name=f"d_ed[{i},{j},{k},{cut.l}]", family="mp_dual_edge")

            # kappa = mu1 * rs, pi = mu1 * r, varrho = nu * z
            first = len(registry.links)
            for j in range(J):
                link_one_hot(m, blk["kappa"][j], blk["mu1"], rs[j], "mp_kappa", registry)
                link_one_hot(m, blk["pi"][j], blk["mu1"], r[j], "mp_pi", registry)
                link_bin_cont(m, blk["varrho"][j], blk["nu"][j], z[j], "mp_varrho", registry)
            blk["links"] = registry.links[first:]

    # optional scheme restrictions (these add rows, so size audits use the
    # unrestricted build)
    if flat:
        for j in range(1, J):
            for v in range(V):
                m.add_constraint({r[0][v]: 1.0, r[j][v]: -1.0}, "==", 0.0,
                                 name=f"flat_p[{j},{v}]", family="mp_flat")
        if flat_storage:
            for j in range(1, J):
                for h in range(H):
                    m.add_constraint({rs[0][h]: 1.0, rs[j][h]: -1.0}, "==", 0.0,
                                     name=f"flat_ps[{j},{h}]", family="mp_flat")
    if fixed_price is not None:
        for j in range(J):
            sel = _grid_index(inst.p_grid[j], fixed_price, f"fixed price at EN {j}")
            for v in range(V):
                var = m.variables[r[j][v]]
                var.lb = var.ub = 1.0 if v == sel else 0.0
    if fixed_sprice is not None:
        for j in range(J):
            sel = _grid_index(inst.ps_grid[j], fixed_sprice, f"fixed storage price at EN {j}")
            for h in range(H):
                var = m.variables[rs[j][h]]
                var.lb = var.ub = 1.0 if h == sel else 0.0
    for k in range(K):
        if budget_cannot_bind(inst, k):
            for per_cut in duals:
                m.variables[per_cut[k]["mu1"]].ub = 0.0

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

    idx = {"z": z, "r": r, "rs": rs, "tp": tp, "xp": xp, "x0p": x0p, "yp": yp,
           "g0": g0, "duals": duals, "cut_rows": cut_rows}
    return MasterModel(model=m.finalize(), registry=registry, idx=idx,
                       cuts=list(cuts), dims=(I, J, K, V, H, L), variant=variant,
                       tied=(("r", "rs") if flat_storage else ("r",)) if flat else ())


def _grid_index(grid, price, label):
    for v, g in enumerate(grid):
        if abs(g - price) <= 1e-9 * max(1.0, abs(g)):
            return v
    raise BilevelError(f"{label}: {price} is not on the grid {grid}")


def _master_leader(instance, bundle, vals, canonical=True):
    """The leader decision a master point encodes.

    A node the master closes (z_j = 0) serves no follower, and every block
    projects to the same cut whatever its price, so the engine may park
    its selectors anywhere.  With ``canonical``, such a row is reported at
    the lowest level its bounds allow (the first, or the fixed price's),
    unless flat pricing ties it to an open node's.
    """
    z = [int(round(vals[i])) for i in bundle.idx["z"]]
    rows = {}
    for family in ("r", "rs"):
        free = canonical and not (family in bundle.tied and any(z))
        rows[family] = []
        for j, sel in enumerate(bundle.idx[family]):
            row = [int(round(vals[i])) for i in sel]
            if free and not z[j]:
                low = next(v for v, i in enumerate(sel) if bundle.model.variables[i].ub > 0)
                row = [int(v == low) for v in range(len(sel))]
            rows[family].append(row)
    return LeaderDecision.from_selectors(instance, z=z, **rows)


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
    rev_edge = sum(leader.p[j] * sols[k].y[j] for j in range(J) for k in range(K))
    rev_place = sum(leader.placement_price(inst, k, j) * sols[k].t[j]
                    for j in range(J) for k in range(K))
    cost_op = sum(inst.f[j] * leader.z[j] for j in range(J)) + \
        sum(inst.c[j] / inst.C[j] * sols[k].y[j] for j in range(J) for k in range(K))
    return MasterSolution(leader=leader, solutions=sols, theta=float(result.objective),
                          revenue_edge=rev_edge, revenue_placement=rev_place,
                          cost_operating=cost_op, status=result.status)


def linearization_audit(bundle, result):
    """Worst |U - a*b| over the product links (U, a, b) the master recorded."""
    vals = result.values
    return max((abs(vals[U] - vals[a] * vals[b]) for U, a, b in bundle.registry.links),
               default=0.0)


def repair_dual_blocks(instance, bundle, result, config=None):
    """Rewrite every cut's certificate block into canonical form.

    The dual-block variables carry no objective coefficient, so MILP
    engines may park them anywhere feasible, including at their big-M
    caps, which would poison the big-M audit.  Each (service, cut) block
    is replaced by the exact dual optimum of that placement's LP when
    the placement is usable under the solved leader decision, or by a
    minimal escape certificate along the dual ray when it is not.  The
    full model is re-verified afterwards; the objective cannot move
    because certificate variables never appear in it.

    The placement LPs are solved by the built-in engine whatever the
    master's backend, on purpose: they are follower-sized, and the
    repaired blocks then do not depend on the engine that solved the
    master.
    """
    from .follower import solve_fixed_t_lp

    inst = instance
    I, J, K, _, _, L = bundle.dims
    if L == 0:
        return result
    vals = result.values
    idx = bundle.idx
    model = bundle.model
    variant = bundle.variant
    # the master's own prices: its duals must satisfy the rows at them
    leader = _master_leader(inst, bundle, vals, canonical=False)

    for li in range(L):
        cut = bundle.cuts[li]
        for k in range(K):
            blk = idx["duals"][li][k]
            tl = [int(b) for b in cut.t_vectors[k]]
            for key in ("mu1", "mu2"):
                vals[blk[key]] = 0.0
            for j in range(J):
                vals[blk["nu"][j]] = 0.0
                vals[blk["Gamma"][j]] = 0.0
                vals[blk["sigma"][j]] = 0.0
            for i in range(I):
                vals[blk["xi"][i]] = 0.0
                vals[blk["eta"][i]] = 0.0
                for j in range(J):
                    vals[blk["tau"][i][j]] = 0.0
            # with mu1 and nu at 0 the block's products are 0 too, which the
            # escape branch's cut-row activity relies on
            _set_products(vals, blk["links"])

            ft = solve_fixed_t_lp(inst, k, leader, tl, variant, config)
            if ft.status == STATUS_OPTIMAL:
                d = ft.dual
                vals[blk["mu1"]] = d.mu1
                vals[blk["mu2"]] = d.mu2
                for j in range(J):
                    vals[blk["Gamma"][j]] = d.Gamma[j]
                    vals[blk["sigma"][j]] = d.sigma[j]
                for i in range(I):
                    vals[blk["xi"][i]] = d.xi[i]
                    vals[blk["eta"][i]] = d.eta[i]
                    for j in range(J):
                        vals[blk["tau"][i][j]] = d.tau[i][j]
            else:
                # the placement is unusable under this leader decision: push
                # the certificate along the unbounded dual direction until
                # the cut row goes slack
                row = model.constraints[idx["cut_rows"][li][k]]
                need = model.constraint_activity(row, vals) - row.rhs
                if need > 0:
                    margin = 1e-7 * (1.0 + abs(need))
                    j_off = next((j for j in range(J)
                                  if tl[j] and leader.z[j] == 0), None)
                    if j_off is not None:
                        vals[blk["nu"][j_off]] = need + margin
                    else:
                        placement = sum(leader.placement_price(inst, k, j) * tl[j]
                                        for j in range(J))
                        overshoot = placement - inst.B[k]
                        if overshoot <= 0:
                            raise BilevelError(
                                f"cut ({k},{cut.l}) infeasible with no escape direction")
                        vals[blk["mu1"]] = (need + margin) / overshoot
                        vals[blk["mu2"]] = 0.0
            _set_products(vals, blk["links"])

    worst = model.max_violation(vals)
    if worst > 1e-5:
        raise BilevelError(f"dual-block repair left a violation of {worst:.3e}")
    return result


def _set_products(vals, links):
    for U, a, b in links:
        vals[U] = vals[a] * vals[b]


def _solve_master(instance, bundle, config, backend):
    res = backend_solve_polished(backend, bundle.model, config)
    if res.status != STATUS_OPTIMAL:
        return res
    repair_dual_blocks(instance, bundle, res, config)
    return res


def solve_hpp(instance, variant=DEFAULT_VARIANT, config=None, backend="reference"):
    """Feasibility relaxation: follower blocks present but not optimal."""
    bundle = build_master(instance, cuts=[], variant=variant)
    res = _solve_master(instance, bundle, config, backend)
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


def solve_sp2(instance, leader, phis, variant=DEFAULT_VARIANT, config=None,
              backend="reference"):
    """Returns (per-service FollowerSolution list, Theta_o)."""
    model, handles = build_sp2(instance, leader, phis, variant)
    res = backend_solve_polished(backend, model, config)
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


def run_algorithm1(instance, epsilon=1e-4, variant=DEFAULT_VARIANT, config=None,
                   backend="reference", flat=False, flat_storage=True,
                   fixed_price=None, fixed_sprice=None, max_iterations=None,
                   time_limit=None, on_iteration=None):
    """Master/subproblem iteration until the relative gap closes.

    Returns an AlgorithmState whose status is "gap-closed", "duplicate-t"
    (a repeated placement vector proves optimality), or "limit".  It always
    carries an incumbent: before the first master, LB = 0 and the incumbent
    are seeded with the leader that switches every node off (z = 0 forces
    t = 0 and y = 0, so the profit is exactly 0), its prices at the grid's
    first level or at the fixed prices, and each follower's SP1 response.
    """
    if epsilon <= 0:
        raise BilevelError("epsilon must be positive")
    inst = instance
    J = inst.J
    cap = max_iterations if max_iterations is not None else 2 ** J + 1
    state = AlgorithmState(epsilon=epsilon)
    t_start = time.perf_counter()
    deadline = t_start + time_limit if time_limit is not None else None
    scale_tol = 1e-6

    state.incumbent_leader = LeaderDecision.from_prices(
        inst, p=[inst.p_grid[j][0] if fixed_price is None else fixed_price for j in range(J)],
        ps=[inst.ps_grid[j][0] if fixed_sprice is None else fixed_sprice for j in range(J)],
        z=[0] * J)
    state.incumbent_solutions = [solve_sp1(inst, k, state.incumbent_leader, variant, config,
                                           backend)[0] for k in range(inst.K)]
    state.LB = 0.0

    while state.iteration < cap:
        if deadline is not None and time.perf_counter() > deadline:
            state.status = "limit"
            break
        state.iteration += 1
        bundle = build_master(inst, state.cuts, variant=variant, flat=flat,
                              flat_storage=flat_storage, fixed_price=fixed_price,
                              fixed_sprice=fixed_sprice)
        res = _solve_master(inst, bundle, config, backend)
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
            sol_k, phi_k = solve_sp1(inst, k, leader, variant, config, backend)
            phis.append(phi_k)
            sp1_sols.append(sol_k)

        candidates = []
        try:
            sp2_sols, theta_o = solve_sp2(inst, leader, phis, variant, config, backend)
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
        if on_iteration is not None:
            on_iteration(state)

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
        state.cuts.append(Cut(l=len(state.cuts) + 1, t_vectors=t_new, source=origin))
    else:
        state.status = "limit"

    state.wall_time = time.perf_counter() - t_start
    return state


def solve_bruteforce(instance, variant=DEFAULT_VARIANT, config=None,
                     backend="reference", max_cuts=1024, time_limit=None):
    """Full enumeration: the master with all 2^J placement vectors per service.

    This is the reference optimum.  Refuses (returns status "NA") when the
    cut budget K * 2^J exceeds ``max_cuts``.
    """
    inst = instance
    J, K = inst.J, inst.K
    n_cuts = K * (2 ** J)
    if n_cuts > max_cuts:
        return None, "NA"
    cuts = [Cut(l=l + 1, t_vectors=tuple(tuple(bits) for _ in range(K)))
            for l, bits in enumerate(itertools.product((0, 1), repeat=J))]
    bundle = build_master(inst, cuts, variant=variant)
    cfg = config or SolverConfig()
    if time_limit is not None:
        cfg = replace(cfg, time_limit=time_limit)
    res = _solve_master(inst, bundle, cfg, backend)
    if res.status == "time-limit":
        return None, "NA"
    if res.status != STATUS_OPTIMAL:
        raise BilevelError(f"full-enumeration model ended with status {res.status}")
    worst = linearization_audit(bundle, res)
    if worst > 1e-5:
        raise BilevelError(f"linearization mismatch {worst:.3e} in full enumeration")
    return extract_master_solution(inst, bundle, res), STATUS_OPTIMAL


def verify_bilevel_solution(instance, leader, solutions, variant=DEFAULT_VARIANT,
                            tol=1e-6, config=None, backend="reference"):
    """Membership report for the bilevel feasible set.

    Checks platform feasibility, per-service feasibility, and per-service
    optimality (fresh exact follower solves); never raises on violations,
    the report carries them.
    """
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
        _, phi_k = solve_sp1(inst, k, leader, variant, config, backend)
        entry["cost"] = cost_k
        entry["phi"] = phi_k
        entry["optimality_gap"] = cost_k - phi_k
        entry["optimal"] = cost_k <= phi_k + tol * (1.0 + abs(phi_k))
        if entry["feasibility_violation"] > tol * (1.0 + inst.max_demand()) or not entry["optimal"]:
            report["ok"] = False
        report["followers"].append(entry)
    return report
