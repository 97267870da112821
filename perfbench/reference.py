"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark runs on a few cores of a shared host whose speed changes on
every time scale as other tenants come and go: on a 2-core Xeon VM the
integrator part of this kernel, about 55 ms, took 29 to 142 ms back to
back, and the run medians of one sweep moved by 12 to 43 % between runs.
The benchmark times kernel passes before and after each sweep and scales
the sweep's times by NOMINAL_S over the mean pass time around it, so a
figure reads as seconds on a machine where one pass takes NOMINAL_S.

The kernel is code of the kind the sweeps spend their time in, and none of
myoarm's: a scalar floating-point integrator loop with `math` calls that
writes rows into NumPy arrays, small records built, sorted and formatted as
CSV lines, and a few CMA-ES-like NumPy generations. A change to `src/`
cannot change it. It imports numpy only when first run, so that the caller
can fix the BLAS thread count first.
"""

import io
import math
import time

NOMINAL_S = 0.1      # scaled figures read as seconds at this kernel time
STEPS = 15000


def _accel(th1, th2, w1, w2, tau1, tau2):
    """Accelerations of a two-link pendulum-like system."""
    m11 = 2.1 + 0.8 * math.cos(th2)
    m12 = 0.4 + 0.4 * math.cos(th2)
    m22 = 0.4
    det = m11 * m22 - m12 * m12
    h = 0.4 * math.sin(th2)
    b1 = -h * (2.0 * w1 * w2 + w2 * w2) + 9.81 * math.cos(th1)
    b2 = h * w1 * w1 + 2.0 * math.cos(th1 + th2)
    r1 = tau1 - b1
    r2 = tau2 - b2
    return (m22 * r1 - m12 * r2) / det, (m11 * r2 - m12 * r1) / det


def integrate(steps: int = STEPS) -> float:
    """Integrate a fixed damped system; return a checksum of its states."""
    import numpy as np
    th = np.zeros((steps + 1, 2))
    acc = np.zeros((steps, 2))
    th1, th2, w1, w2 = 0.3, 0.6, 0.0, 0.0
    dt = 0.005
    for k in range(steps):
        tau1 = -4.0 * th1 - 0.5 * w1 + math.sin(0.01 * k)
        tau2 = -3.0 * th2 - 0.4 * w2
        a1, a2 = _accel(th1, th2, w1, w2, tau1, tau2)
        w1 += dt * a1
        w2 += dt * a2
        th1 += dt * w1
        th2 += dt * w2
        acc[k] = (a1, a2)
        th[k + 1] = (th1, th2)
        if k % 200 == 199:
            window = acc[k - 199:k + 1]
            th1 -= 1e-6 * float(np.abs(window).sum())
    return float(th.sum() + np.square(acc).mean())


def objects(n: int = 6000) -> int:
    """Build, sort and format small records, as a sweep writes its CSVs."""
    rows = [{"gen": i // 36, "cost": math.cos(i) * 1e3, "seed": i % 7,
             "tag": f"m{i % 3}"} for i in range(n)]
    rows.sort(key=lambda r: (r["seed"], r["cost"]))
    buf = io.StringIO()
    for r in rows:
        buf.write(f"{r['gen']},{r['seed']},{r['tag']},{r['cost']:.6g}\n")
    return len(buf.getvalue())


def linalg(gens: int = 15, dim: int = 120, pop: int = 24) -> float:
    """A few CMA-ES-like generations: sample, rank, update, eigendecompose."""
    import numpy as np
    rng = np.random.default_rng(0)
    mean = np.zeros(dim)
    cov = np.eye(dim)
    weights = np.log(pop / 2 + 0.5) - np.log(np.arange(1, pop // 2 + 1))
    weights /= weights.sum()
    for _ in range(gens):
        vals, vecs = np.linalg.eigh(cov)
        root = vecs * np.sqrt(np.maximum(vals, 1e-12))
        z = rng.standard_normal((pop, dim))
        x = mean + z @ root.T
        order = np.argsort(np.square(x - 1.0).sum(axis=1))[:pop // 2]
        y = x[order] - mean
        mean = mean + weights @ y
        cov = 0.8 * cov + 0.2 * (y.T * weights) @ y
    return float(mean.sum())


def timed() -> float:
    """Wall time of one pass of the whole kernel, in seconds."""
    t0 = time.perf_counter()
    integrate()
    objects()
    linalg()
    return time.perf_counter() - t0


def block(seconds: float) -> list:
    """Times of kernel passes, repeated until they add up to `seconds`."""
    times = [timed()]
    while sum(times) < seconds:
        times.append(timed())
    return times
