"""Batch potential kernel: ``total_potential`` over a whole candidate grid.

The loop repeats the operation order of the scalar potential functions in
``mppf.potentials`` over flat buffers, so each candidate's score is
bit-for-bit equal to composing the scalars (tests assert exact equality).
Candidates coincident with an obstacle sample point get +inf instead of a
score; the selector treats them as infeasible.

Buffers are flat float64 sequences: positions/velocities packed xyz per
entry, one influence radius per obstacle point, one output per candidate.
"""

from math import acos, inf, pi, sqrt

BACKEND = "pure"  # the only kernel; named in benchmark reports


def total_potential_grid(n, cand_pos, cand_vel, gx, gy, gz,
                         m, obs_pos, obs_vel, obs_inf,
                         fx, fy, fz, xi, eta, tau, kappa,
                         align_max, advanced, out):
    fn = sqrt(fx * fx + fy * fy + fz * fz)
    for i in range(n):
        cx = cand_pos[3 * i]
        cy = cand_pos[3 * i + 1]
        cz = cand_pos[3 * i + 2]
        dgx = gx - cx
        dgy = gy - cy
        dgz = gz - cz
        dg2 = dgx * dgx + dgy * dgy + dgz * dgz
        u = 0.5 * xi * dg2
        blocked = False
        for j in range(m):
            rx = obs_pos[3 * j] - cx
            ry = obs_pos[3 * j + 1] - cy
            rz = obs_pos[3 * j + 2] - cz
            do2 = rx * rx + ry * ry + rz * rz
            if do2 == 0.0:
                blocked = True
                break
            d_o = sqrt(do2)
            dtj = obs_inf[j]
            if d_o <= dtj:
                w = 1.0 / d_o - 1.0 / dtj
                u += 0.5 * eta * w * w * dg2
        if blocked:
            out[i] = inf
            continue
        if advanced:
            vx = cand_vel[3 * i]
            vy = cand_vel[3 * i + 1]
            vz = cand_vel[3 * i + 2]
            for j in range(m):
                rx = obs_pos[3 * j] - cx
                ry = obs_pos[3 * j + 1] - cy
                rz = obs_pos[3 * j + 2] - cz
                do2 = rx * rx + ry * ry + rz * rz
                d_o = sqrt(do2)
                dtj = obs_inf[j]
                if d_o > dtj:
                    continue
                v_uo = ((vx - obs_vel[3 * j]) * rx
                        + (vy - obs_vel[3 * j + 1]) * ry
                        + (vz - obs_vel[3 * j + 2]) * rz) / d_o
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
