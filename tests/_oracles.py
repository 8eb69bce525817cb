"""Independent brute-force oracles used to freeze expected values.

Everything here is written as plain loops over the raw arrays so the
expected values do not share a code path with the package's assemblers.
Cell-to-cell distances are h |k_i - k_j| over the integer lattice
coordinates k (GridDomain.coords), so they carry one rounding on any h,
where differences of rounded cell centers lose digits on a non-dyadic h.
"""

import itertools
import math

import numpy as np
import scipy.linalg


def energy_double_sum(coords, values, h, dim, s, p):
    """Sum over all ordered pairs i != j of |u_i-u_j|^p |x_i-x_j|^-(N+sp) h^(2N).

    Pairs with u_i = u_j = 0 add exactly 0 and are skipped.
    """
    expo = dim + s * p
    k = coords.tolist()
    total = 0.0
    m = len(k)
    for i in range(m):
        for j in range(m):
            if i == j or values[i] == values[j] == 0.0:
                continue
            d = h * math.dist(k[i], k[j])
            total += abs(values[i] - values[j]) ** p / d**expo * h ** (2 * dim)
    return total


def lp_sum(values, omega_mask, h, dim, p):
    total = 0.0
    for i, flag in enumerate(omega_mask):
        if flag:
            total += abs(values[i]) ** p * h**dim
    return total ** (1.0 / p)


def operator_double_sum(coords, values, omega_mask, h, dim, s, p):
    """Gradient of the energy by explicit differentiation of the double sum."""
    expo = dim + s * p
    k = coords.tolist()
    m = len(k)
    g = np.zeros(m)
    for i in range(m):
        if not omega_mask[i]:
            continue
        acc = 0.0
        for j in range(m):
            if j == i:
                continue
            d = h * math.dist(k[i], k[j])
            z = values[i] - values[j]
            acc += abs(z) ** (p - 1) * math.copysign(1.0, z) / d**expo if z != 0 else 0.0
        g[i] = 2.0 * p * acc * h ** (2 * dim)
    return g


def hessian_loops(coords, values, omega_mask, h, dim, s, p, labels=None):
    """Curvature of energy/p in the free-cell values, by explicit loops.

    Each ordered pair (i, j) adds (1/p)|u_i - u_j|^p |x_i - x_j|^-(N+sp) h^(2N);
    its second derivatives carry the weight (p-1)|u_i - u_j|^(p-2), with
    |u_i - u_j| floored at 1e-14 max|u| (1e-14 for u = 0) as in the solver.
    Pairs toward exterior cells (u_j = 0) add to the diagonal only.  Pairs
    of free cells with equal labels (one per cell, when given) are left
    out: each adds w (e_i - e_j)(e_i - e_j)^T, which P^T (.) P maps to 0
    when P takes the cells of a label to one unknown.
    """
    expo = dim + s * p
    k = coords.tolist()
    free = [i for i, f in enumerate(omega_mask) if f]
    col = {i: c for c, i in enumerate(free)}
    delta = 1e-14 * (max(abs(v) for v in values) or 1.0)
    out = np.zeros((len(free), len(free)))
    for ii, i in enumerate(free):
        for j in range(len(k)):
            if j == i or (labels is not None and omega_mask[j] and labels[i] == labels[j]):
                continue
            z = max(abs(values[i] - values[j]), delta)
            # both orders (i, j) and (j, i) of the pair hold the term
            w = 2.0 * (p - 1) * z ** (p - 2) / (h * math.dist(k[i], k[j])) ** expo * h ** (2 * dim)
            out[ii, ii] += w
            if omega_mask[j]:
                out[ii, col[j]] -= w
    return out


def pair_gradient(coords, values, h, dim, s, p, rows=None):
    """(u_i - u_j)/|x_i - x_j|^(N/p+s) for i in rows (default: every cell)."""
    expo = dim / p + s
    k = coords.tolist()
    m = len(k)
    rows = range(m) if rows is None else rows
    out = np.zeros((len(rows), m))
    for r, i in enumerate(rows):
        for j in range(m):
            if i != j:
                out[r, j] = (values[i] - values[j]) / (h * math.dist(k[i], k[j])) ** expo
    return out


def pair_divergence(coords, phi, h, dim, s, p, rows=None):
    """Adjoint field d_i for i in rows (default: every cell)."""
    expo = dim / p + s
    k = coords.tolist()
    m = len(k)
    rows = range(m) if rows is None else rows
    out = np.zeros(len(rows))
    for r, i in enumerate(rows):
        acc = 0.0
        for j in range(m):
            if j != i:
                acc += (phi[i, j] - phi[j, i]) / (h * math.dist(k[i], k[j])) ** expo
        out[r] = acc * h**dim
    return out


def pair_divergence_fsum(coords, phi, h, dim, s, p):
    """(d, mag) over every cell: the adjoint field d_i with each row summed
    by math.fsum (correctly rounded), and mag_i the sum of the absolute
    terms |phi_ij - phi_ji| |x_i - x_j|^-(N/p+s), both times h^N.
    """
    expo = dim / p + s
    m = len(coords)
    k = coords.tolist()
    rows = phi.tolist()
    d, mag = np.zeros(m), np.zeros(m)
    for i in range(m):
        terms = [
            (rows[i][j] - rows[j][i]) / (h * math.dist(k[i], k[j])) ** expo
            for j in range(m)
            if j != i
        ]
        d[i] = math.fsum(terms) * h**dim
        mag[i] = math.fsum(abs(x) for x in terms) * h**dim
    return d, mag


def kernel_tables(coords, omega_mask, h, dim, s, p):
    """(K_oo, k_out): Omega-Omega weights |x_i - x_j|^-(N+sp), zero diagonal,
    and each Omega cell's weight sum toward the exterior cells."""
    expo = dim + s * p
    k = coords.tolist()
    free = [i for i, f in enumerate(omega_mask) if f]
    k_oo = np.zeros((len(free), len(free)))
    k_out = np.zeros(len(free))
    for ii, i in enumerate(free):
        jj = 0
        for j in range(len(k)):
            if omega_mask[j]:
                if j != i:
                    k_oo[ii, jj] = (h * math.dist(k[i], k[j])) ** -expo
                jj += 1
            else:
                k_out[ii] += (h * math.dist(k[i], k[j])) ** -expo
    return k_oo, k_out


def adjoint_both_sides(coords, omega_mask, values, phi, h, dim, s, p):
    """(<u, div phi>, <phi, grad u>) by two independent naive loops."""
    div = pair_divergence(coords, phi, h, dim, s, p)
    lhs = sum(values[i] * div[i] for i in range(len(coords))) * h**dim
    grad = pair_gradient(coords, values, h, dim, s, p)
    rhs = float(np.sum(phi * grad)) * h ** (2 * dim)
    return lhs, rhs


def poincare_search(cells, coords, omega_mask, center, diameter, t, h, dim, s, p):
    """Exhaustive scan over candidate centers and integer radii; distances
    to the center from the cell centers, between cells from coords."""
    vol = 2.0 if dim == 1 else math.pi
    half = 0.5 * t * diameter
    k = coords.tolist()
    omega = [x for x, f in zip(k, omega_mask) if f]
    best = math.inf
    for c, kc, flag in zip(cells, k, omega_mask):
        if flag:
            continue
        dmin = min(h * math.dist(kc, x) for x in omega)
        dmax = max(h * math.dist(kc, x) for x in omega)
        room = half - math.dist(c, center)
        k = 1
        while k * h <= min(dmin, room) * (1 + 1e-9):
            r = k * h
            diam = max(diameter, dmax + r)
            best = min(best, diam ** (dim + s * p) / (vol * r**dim))
            k += 1
    return best


def dense_p2_matrix(coords, omega_mask, h, dim, s):
    """Free-cell matrix with v^T A v = energy(v)/h^N at p = 2, by loops."""
    expo = dim + 2 * s
    k = coords.tolist()
    free = [i for i, f in enumerate(omega_mask) if f]
    n = len(free)
    a = np.zeros((n, n))
    for ii, i in enumerate(free):
        diag = 0.0
        for j in range(len(k)):
            if j == i:
                continue
            w = (h * math.dist(k[i], k[j])) ** -expo
            diag += w
            if omega_mask[j]:
                a[ii, free.index(j)] -= w
        a[ii, ii] += diag
    return 2.0 * h**dim * a


def dense_p2_eigenpair(coords, omega_mask, h, dim, s):
    a = dense_p2_matrix(coords, omega_mask, h, dim, s)
    vals, vecs = scipy.linalg.eigh(a)
    v = vecs[:, 0]
    if v.sum() < 0:
        v = -v
    norm = (np.sum(v**2) * h**dim) ** 0.5
    return float(vals[0]), v / norm


def max_pairwise_distance(points):
    best = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = max(best, math.dist(points[i], points[j]))
    return best


def far_field_loops(coords, values, omega_mask, center, origin, h, dim, diameter, t, s, p, factor):
    """Far-field part W of the equivalence split, by explicit loops.

    Sums 2 |u_i|^p |x_i - y|^-(N+sp) h^(2N) over the Omega cells x_i and the
    lattice points y = origin + h k with t R / 2 < |y - center| <= factor R,
    then adds the radial tail 2 (N |B_1| / sp) (factor R)^(-sp) ||u||_p^p.
    |x_i - y| is h |k_i - k| for the coords k_i of x_i.
    """
    expo = dim + s * p
    sp = s * p
    half, r_quad = 0.5 * t * diameter, factor * diameter
    reach = math.ceil((math.dist(origin, center) + r_quad) / h) + 2
    points = []
    for k in itertools.product(range(-reach, reach + 1), repeat=dim):
        y = [origin[d] + h * k[d] for d in range(dim)]
        r = math.dist(y, center)
        if half * (1 + 1e-12) < r <= r_quad * (1 + 1e-12):
            points.append(k)
    lattice = coords.tolist()
    quad, lp = 0.0, 0.0
    for i, flag in enumerate(omega_mask):
        if not flag:
            continue
        up = abs(values[i]) ** p
        lp += up * h**dim
        for k in points:
            quad += 2.0 * up / (h * math.dist(lattice[i], k)) ** expo * h ** (2 * dim)
    vol = 2.0 if dim == 1 else math.pi
    return quad + 2.0 * (dim * vol / sp) * r_quad ** (-sp) * lp


def shell_sums_vectorized(omega_cells, center, origin, h, r_in, r_out, expo):
    """Per-Omega-cell sums of |x_i - y|^-expo over the lattice points
    y = origin + h k with r_in < |y - center| <= r_out, by brute force over
    blocks of points, from the float coordinates of both ends."""
    lo = np.floor((center - r_out - origin) / h).astype(np.int64) - 1
    hi = np.ceil((center + r_out - origin) / h).astype(np.int64) + 1
    axes = [origin[d] + h * np.arange(lo[d], hi[d] + 1) for d in range(len(origin))]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    dc = np.linalg.norm(pts - center, axis=1)
    pts = pts[(dc > r_in * (1.0 + 1e-12)) & (dc <= r_out * (1.0 + 1e-12))]
    out = np.zeros(len(omega_cells))
    for start in range(0, len(pts), 4096):
        block = pts[start : start + 4096]
        d2 = sum((omega_cells[:, d, None] - block[None, :, d]) ** 2 for d in range(len(origin)))
        out += np.sum(d2 ** (-0.5 * expo), axis=1)
    return out


def psmall_gap_loops(u_values, v_values, omega_mask, p):
    """(worst lhs - rhs, largest rhs) of the 1<p<2 pairwise inequality
    (p-1)|U-V|^2 <= (phi(U)-phi(V))(U-V)(|U|^p+|V|^p)^((2-p)/p) over the
    ordered pairs i != j with i in Omega, U = u_i - u_j, V = v_i - v_j;
    pairs with U = V = 0, or with |U-V| at most 4 eps (|U|+|V|), are left out.
    """
    eps = np.finfo(float).eps

    def odd(z):
        return math.copysign(abs(z) ** (p - 1.0), z)

    worst, scale = -math.inf, 0.0
    for i, flag in enumerate(omega_mask):
        if not flag:
            continue
        for j in range(len(omega_mask)):
            if j == i:
                continue
            a, b = u_values[i] - u_values[j], v_values[i] - v_values[j]
            if (a == 0.0 and b == 0.0) or abs(a - b) <= 4.0 * eps * (abs(a) + abs(b)):
                continue
            rhs = (odd(a) - odd(b)) * (a - b) * (abs(a) ** p + abs(b) ** p) ** ((2.0 - p) / p)
            worst = max(worst, (p - 1.0) * (a - b) ** 2 - rhs)
            scale = max(scale, rhs)
    return worst, scale


def lattice_symmetry_orbits(coords, omega_mask):
    """(maps, orbit, reps, mult, order) by mapping every cell's coordinates.

    maps lists the (A, c) of the maps x -> A x + c, A a signed axis
    permutation and c the shift that takes the coordinate box of the cells
    onto itself, that send each cell to a cell with the same Omega flag.
    Each Omega cell's orbit is named by the least Omega position among its
    images; orbit, reps and mult number those names in ascending order.
    """
    dim = coords.shape[1]
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    cell_at = {tuple(x): k for k, x in enumerate(coords.tolist())}
    omega = [k for k, flag in enumerate(omega_mask) if flag]
    position = {k: pos for pos, k in enumerate(omega)}
    maps, images = [], []
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=dim):
            a = np.eye(dim, dtype=np.int64)[list(perm)] * np.array(signs)[:, None]
            c = lo - np.minimum(a @ lo, a @ hi)
            image = [cell_at.get(tuple(x), -1) for x in (coords @ a.T + c).tolist()]
            if all(k >= 0 and omega_mask[k] == omega_mask[i] for i, k in enumerate(image)):
                maps.append((a, c))
                images.append([position[image[k]] for k in omega])
    least = [min(column) for column in zip(*images)]
    reps = sorted(set(least))
    name = {pos: a for a, pos in enumerate(reps)}
    orbit = np.array([name[pos] for pos in least])
    return maps, orbit, np.array(reps), np.bincount(orbit).astype(float), len(maps)
