"""Batch potential kernel: ``total_potential`` over a whole candidate grid.

The kernel walks the fan as ``SampleSurface`` holds it, each heading row
crossed with each glide row in grid order, and forms each candidate's
position and velocity from the two rows with the expressions of
``SampleSurface.candidates``, so no Candidate is built. Each candidate
walks the points once. A point exactly on the candidate makes its score
+inf, which the selector treats as infeasible. Inside a point's influence
radius its repulsion term joins the sum at once and, in advanced mode, its
closing-velocity term is held back. The held terms are added in point
order after the walk, then the flow term: the addition order of
``mppf.potentials.total_potential``, so each score is bit-for-bit equal to
composing the scalars (tests assert exact equality).

The kernel reads the surface's center and rows, each ``ObstaclePoint``'s
position, velocity and influence radius, the flow ``Vec3`` and the
``PotentialParams`` gains, and returns a list of scores.

It scores every candidate x point pair it is given. ``grid_potentials``
passes only the points within reach of the fan (influence + fan reach +
1 m of its center); the rest lie beyond their influence radius from every
candidate and would add no term, so the result is the same bits.
"""

from math import acos, inf, pi, sqrt

BACKEND = "pure"  # the only kernel; named in benchmark reports


def total_potential_grid(n, surface, gx, gy, gz, flow, m, points, params, advanced):
    """``n`` and ``m`` are the counts of candidates and points; the loops
    walk the surface's rows and the points, and the mission benchmark
    reads the counts."""
    # each gain times 0.5, formed once: 0.5 * xi * dg2 multiplies left to
    # right, so (0.5 * xi) * dg2 is the same bits
    hxi, heta = 0.5 * params.xi, 0.5 * params.eta
    htau, hkappa = 0.5 * params.tau, 0.5 * params.kappa
    align_max = params.flow_align_max
    opposed = 0.5 * pi + align_max
    fx, fy, fz = flow.x, flow.y, flow.z
    fn = sqrt(fx * fx + fy * fy + fz * fz)
    aligning = advanced and fn != 0.0
    center = surface.center
    px, py, pz = center.x, center.y, center.z
    glides = surface.glides
    out = []
    for _psi, cp, sp in surface.headings:
        for _theta, _speed, rct, rdz, vct, vz in glides:
            cx = px + rct * cp
            cy = py + rct * sp
            cz = pz + rdz
            vx = vct * cp
            vy = vct * sp
            dgx = gx - cx
            dgy = gy - cy
            dgz = gz - cz
            dg2 = dgx * dgx + dgy * dgy + dgz * dgz
            u = hxi * dg2
            closing = None
            for p in points:
                op = p.position
                rx = op.x - cx
                ry = op.y - cy
                rz = op.z - cz
                do2 = rx * rx + ry * ry + rz * rz
                if do2 == 0.0:
                    u = inf
                    break
                d_o = sqrt(do2)
                dtj = p.influence
                if d_o > dtj:
                    continue
                w = 1.0 / d_o - 1.0 / dtj
                u += heta * w * w * dg2
                if advanced:
                    ov = p.velocity
                    v_uo = ((vx - ov.x) * rx
                            + (vy - ov.y) * ry
                            + (vz - ov.z) * rz) / d_o
                    if not v_uo < 0.0:
                        if closing is None:  # allocated only when needed
                            closing = [htau * v_uo / d_o]
                        else:
                            closing.append(htau * v_uo / d_o)
            else:  # no point on the candidate
                if closing:
                    for t in closing:
                        u += t
                if aligning:
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
                            u += hkappa * (dx * dx + dy * dy + dz * dz)
                        elif gamma >= opposed:
                            sx = fx + vx
                            sy = fy + vy
                            sz = fz + vz
                            u += hkappa * (sx * sx + sy * sy + sz * sz)
            out.append(u)
    return out
