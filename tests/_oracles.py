"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the code paths they check: Taylor series instead of
eigendecomposition, SVD instead of Newton iteration, explicit basis loops
instead of reshape tricks, site-by-site kron chains instead of the package's
embedding.
"""

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def taylor_expm(h, t, terms=30):
    """exp(-i h t) by scaling-and-squaring a truncated Taylor series."""
    a = -1j * t * np.asarray(h, dtype=complex)
    norm = np.linalg.norm(a)
    squarings = 0
    while norm > 0.5:
        a = a / 2.0
        norm /= 2.0
        squarings += 1
    out = np.eye(a.shape[0], dtype=complex)
    power = np.eye(a.shape[0], dtype=complex)
    fact = 1.0
    for k in range(1, terms + 1):
        power = power @ a
        fact *= k
        out = out + power / fact
    for _ in range(squarings):
        out = out @ out
    return out


def svd_polar(m):
    """Unitary polar factor via SVD."""
    u, _, vh = np.linalg.svd(np.asarray(m, dtype=complex))
    return u @ vh


def frobenius_by_summation(a, b):
    total = 0.0
    a = np.asarray(a)
    b = np.asarray(b)
    for r in range(a.shape[0]):
        for c in range(a.shape[1]):
            total += abs(a[r, c] - b[r, c]) ** 2
    return total**0.5


def brute_embed(a, sites, n):
    """Embed by looping over all global basis pairs (site s = bit weight 2^s)."""
    a = np.asarray(a, dtype=complex)
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    sites = list(sites)
    for r in range(dim):
        for c in range(dim):
            if any(
                ((r >> s) & 1) != ((c >> s) & 1)
                for s in range(n)
                if s not in sites
            ):
                continue
            ra = sum(((r >> s) & 1) << j for j, s in enumerate(sites))
            ca = sum(((c >> s) & 1) << j for j, s in enumerate(sites))
            out[r, c] = a[ra, ca]
    return out


def kron_site_op(op, site, n):
    """Single-site operator via an explicit kron chain (site 0 least significant)."""
    out = np.ones((1, 1), dtype=complex)
    for s in reversed(range(n)):
        out = np.kron(out, op if s == site else ID2)
    return out


def dense_tfim(n, j, g):
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n - 1):
        h += -j * (kron_site_op(SZ, i, n) @ kron_site_op(SZ, i + 1, n))
    for i in range(n):
        h += -g * kron_site_op(SX, i, n)
    return h


def dense_heisenberg(n, jx, jy, jz):
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n - 1):
        h += jx * (kron_site_op(SX, i, n) @ kron_site_op(SX, i + 1, n))
        h += jy * (kron_site_op(SY, i, n) @ kron_site_op(SY, i + 1, n))
        h += jz * (kron_site_op(SZ, i, n) @ kron_site_op(SZ, i + 1, n))
    return h


def ptrace_site_reconstruction(m, s):
    """identity_s (x) (partial trace over s / 2), via explicit index loops."""
    m = np.asarray(m, dtype=complex)
    dim = m.shape[0]
    n = dim.bit_length() - 1
    out = np.zeros_like(m)
    mask = ~(1 << s)
    for r in range(dim):
        for c in range(dim):
            if ((r >> s) & 1) != ((c >> s) & 1):
                continue
            r0, c0 = r & mask, c & mask
            out[r, c] = 0.5 * (m[r0, c0] + m[r0 | (1 << s), c0 | (1 << s)])
    return out


def random_hermitian(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (z + z.conj().T)


def random_state(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def plus_state(n):
    return np.full(2**n, 2 ** (-n / 2), dtype=complex)


def eager_layer_frames(state, gates):
    """Frames after a commuting layer, by the eager formula: every sandwich at once.

    U_I -> U_I prod_(g near I) U_g^dag G U_g on the stored (plain-gauge)
    frames, and a gate's own patch takes G U. This keeps the package's
    `apply_local` and the same matrix products in the same order, so results
    agree bit for bit.
    """
    from gaugesim.lattice import apply_local

    patches = state.cover.patches
    frames = np.empty_like(state.frame_stack)
    sandwiches = {}
    for gp, g in gates.items():
        i = state.cover.index(gp)
        v = state.frame_stack[i]
        gv = apply_local(g, gp, state.n_sites, v)
        if any(p != gp and p.overlaps(gp) for p in patches):
            sandwiches[gp] = v.conj().T @ gv
        frames[i] = gv
    for i, p in enumerate(patches):
        w = None
        for gp in gates:
            if gp != p and gp.overlaps(p):
                w = sandwiches[gp] if w is None else w @ sandwiches[gp]
        if p in gates:
            if w is not None:
                frames[i] = frames[i] @ w
        elif w is None:
            frames[i] = state.frame_stack[i]
        else:
            np.matmul(state.frame_stack[i], w, out=frames[i])
    return frames


def eager_generator_frames(hml, steps, dt, reunitarize_every):
    """Generator-mode frames after `steps` RK4 steps of dt from t = 0, by the eager formula.

    Each slope forms every product of the plan at once, then every frame's
    -i U_I R_I; each step is the textbook RK4 combination of four such
    slopes, followed by `polar_unitary` of the whole stack every
    `reunitarize_every` steps. This keeps the package's `apply_local` and
    the same matrix products and sums in the same order, so results agree bit
    for bit.
    """
    from gaugesim.lattice import apply_local
    from gaugesim.linalg import polar_unitary

    cover = hml.cover
    plan, n = hml.step_plan(cover), cover.n_sites

    def slope(t, frames):
        products = []
        for placed, coef in zip(plan.products, plan.coefficients):
            prod = None
            for j, fac in placed:
                u = frames[j]
                w = u.conj().T @ apply_local(fac, plan.patches[j], n, u)
                prod = w if prod is None else prod @ w
            products.append(prod if coef is None else coef(t) * prod)
        out = np.zeros_like(frames)
        for i, near in enumerate(plan.touching):
            if near:
                r = products[near[0]]
                for q in near[1:]:
                    r = r + products[q]
                out[i] = (frames[i] @ r) * -1j
        return out

    y = np.repeat(np.eye(cover.dim, dtype=complex)[None], len(cover), axis=0)
    for step in range(1, steps + 1):
        t = (step - 1) * dt
        k1 = slope(t, y)
        k2 = slope(t + dt / 2, y + dt / 2 * k1)
        k3 = slope(t + dt / 2, y + dt / 2 * k2)
        k4 = slope(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if reunitarize_every and step % reunitarize_every == 0:
            y = polar_unitary(y)
    return y


def dense_site_identity_defects(m):
    """Per-site identity defects of M from its four D/2 x D/2 site blocks, on the full matrix."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0].bit_length() - 1
    tensor = m.reshape([2] * (2 * n))
    defects = {}
    for s in range(n):
        blocks = np.moveaxis(tensor, (n - 1 - s, 2 * n - 1 - s), (0, 1))
        off = np.linalg.norm(blocks[0, 1]) ** 2 + np.linalg.norm(blocks[1, 0]) ** 2
        diag = 0.5 * np.linalg.norm(blocks[0, 0] - blocks[1, 1]) ** 2
        defects[s] = float(np.sqrt(off + diag))
    return defects


def dense_unitarity_defect(m):
    """||M^dag M - 1||_F from the full D x D Gram matrix."""
    m = np.asarray(m, dtype=complex)
    gram = m.conj().T @ m
    gram.flat[:: m.shape[0] + 1] -= 1.0
    return float(np.linalg.norm(gram))


def window_local_matrices(n, rng):
    """(lo, hi, 1 (x) core (x) 1) for every window of sites lo..hi, the empty one
    (lo, hi) = (0, -1) first: a random near-unitary core, by an explicit kron chain."""
    windows = [(0, -1)] + [(lo, hi) for lo in range(n) for hi in range(lo, n)]
    for lo, hi in windows:
        c = 2 ** max(hi - lo + 1, 0)
        z = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
        q, _ = np.linalg.qr(z)
        core = q + 1e-3 * z
        if hi < lo:
            yield lo, hi, core[0, 0] * np.eye(2**n, dtype=complex)
        else:
            yield lo, hi, np.kron(np.kron(np.eye(2 ** (n - 1 - hi)), core), np.eye(2**lo))
