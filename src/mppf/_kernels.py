"""Batch potential kernel: ``total_potential`` over a whole candidate grid.

The loop repeats the operation order of the scalar potential functions in
``mppf.potentials`` over the fan, so each candidate's score is bit-for-bit
equal to composing the scalars (tests assert exact equality). Candidates
coincident with an obstacle sample point get +inf instead of a score; the
selector treats them as infeasible.

The kernel reads the fields as they are: each ``Candidate``'s position and
velocity, each ``ObstaclePoint``'s position, velocity and influence radius,
and the flow ``Vec3``. It writes one score per candidate into ``out``.

It scores every candidate x point pair it is given. ``grid_potentials``
passes only the points within reach of the fan (influence + fan reach +
1 m of its center); the rest lie beyond their influence radius from every
candidate and would add no term, so the result is the same bits.
"""

from math import acos, inf, pi, sqrt

BACKEND = "pure"  # the only kernel; named in benchmark reports


def total_potential_grid(n, candidates, gx, gy, gz, flow, m, points,
                         xi, eta, tau, kappa, align_max, advanced, out):
    fx, fy, fz = flow.x, flow.y, flow.z
    fn = sqrt(fx * fx + fy * fy + fz * fz)
    for i in range(n):
        cand = candidates[i]
        cp = cand.position
        cx, cy, cz = cp.x, cp.y, cp.z
        dgx = gx - cx
        dgy = gy - cy
        dgz = gz - cz
        dg2 = dgx * dgx + dgy * dgy + dgz * dgz
        u = 0.5 * xi * dg2
        blocked = False
        for j in range(m):
            p = points[j]
            op = p.position
            rx = op.x - cx
            ry = op.y - cy
            rz = op.z - cz
            do2 = rx * rx + ry * ry + rz * rz
            if do2 == 0.0:
                blocked = True
                break
            d_o = sqrt(do2)
            dtj = p.influence
            if d_o <= dtj:
                w = 1.0 / d_o - 1.0 / dtj
                u += 0.5 * eta * w * w * dg2
        if blocked:
            out[i] = inf
            continue
        if advanced:
            cv = cand.velocity
            vx, vy, vz = cv.x, cv.y, cv.z
            for j in range(m):
                p = points[j]
                op = p.position
                rx = op.x - cx
                ry = op.y - cy
                rz = op.z - cz
                do2 = rx * rx + ry * ry + rz * rz
                d_o = sqrt(do2)
                dtj = p.influence
                if d_o > dtj:
                    continue
                ov = p.velocity
                v_uo = ((vx - ov.x) * rx
                        + (vy - ov.y) * ry
                        + (vz - ov.z) * rz) / d_o
                if v_uo < 0.0:
                    continue
                u += 0.5 * tau * v_uo / d_o
            if fn != 0.0:
                vn = sqrt(vx * vx + vy * vy + vz * vz)
                if vn != 0.0:
                    c = (fx * vx + fy * vy + fz * vz) / (fn * vn)
                    if c > 1.0:
                        c = 1.0
                    elif c < -1.0:
                        c = -1.0
                    gamma = acos(c)
                    if gamma <= align_max:
                        dx = fx - vx
                        dy = fy - vy
                        dz = fz - vz
                        u += 0.5 * kappa * (dx * dx + dy * dy + dz * dz)
                    elif gamma >= 0.5 * pi + align_max:
                        sx = fx + vx
                        sy = fy + vy
                        sz = fz + vz
                        u += 0.5 * kappa * (sx * sx + sy * sy + sz * sz)
        out[i] = u
