#!/usr/bin/env python3
"""Regenerate the pinned zero tables for the n = 2 kernel.

Independent oracle: the transform of exp(-t^4) is evaluated through its exact
Maclaurin series, whose coefficients are Gamma((2p+1)/4) / (2 (2p)!).  Working
precision grows with w^(4/3) to absorb the cancellation, so values are good to
far beyond float64 down to magnitudes around 1e-40.  Zeros are bracketed by an
adaptive sign scan, located with mpmath's bracketed root finder, then
Newton-polished at the series' working precision until the last step is
below 1e-30 of the zero.  (The root finder's own tolerance is absolute, and
|F| near the deep zeros is only ~1e-35, so it stops early there.)

Outputs (committed, regenerated only when this script changes):
    tests/data/f4_zero_goldens.csv          25-digit zeros for the test suite
    src/supergauss/data/f4_zeros_oracle.csv extended pool in zero-cache format

Requires mpmath (not a runtime dependency of the package).
"""

import pathlib

import mpmath as mp

COUNT = 44
REPO = pathlib.Path(__file__).resolve().parent.parent


def working_dps(w):
    """Digits that absorb the series' cancellation at w, with 60 to spare."""
    return 60 + int(2.0 * float(abs(w)) ** (4 / 3) / float(mp.log(10)))


def f4(w, derivs=0):
    """F(w) for the t^4 kernel and its first `derivs` derivatives, via series."""
    dps = working_dps(w)
    with mp.workdps(dps):
        w = mp.mpf(w)
        out = [mp.mpf(0)] * (derivs + 1)
        largest = mp.mpf(0)
        p = 0
        while True:
            coeff = (-1) ** p * mp.gamma((2 * p + 1) / mp.mpf(4)) / (2 * mp.factorial(2 * p))
            lead = coeff * w ** (2 * p)
            largest = max(largest, abs(lead))
            out[0] += lead
            for k in range(1, derivs + 1):
                if 2 * p - k >= 0:
                    out[k] += coeff * mp.ff(2 * p, k) * w ** (2 * p - k)
            if p > 8 and abs(lead) < largest * mp.mpf(10) ** (-dps + 2) \
                    and abs(lead) < mp.mpf(10) ** (-dps + 10):
                break
            p += 1
        return [mp.mpf(x) for x in out]


def polish(root):
    """Newton steps at f4's working precision until |F/F'| <= 1e-30 * root."""
    for _ in range(20):
        with mp.workdps(working_dps(root)):
            val, d1 = f4(root, derivs=1)
            step = val / d1
            root = root - step
            if abs(step) <= mp.mpf(10) ** -30 * abs(root):
                return root
    raise ArithmeticError(f"Newton polish did not converge near {mp.nstr(root, 20)}")


def find_zeros(count):
    zeros = []
    prev_w, prev_f = mp.mpf(0), f4(0)[0]
    w = mp.mpf("0.05")
    while len(zeros) < count:
        f = f4(w)[0]
        if (f < 0) != (prev_f < 0):
            root = mp.findroot(lambda x: f4(x)[0], (prev_w, w),
                               solver="anderson", tol=mp.mpf(10) ** -40)
            zeros.append(polish(root))
        prev_w, prev_f = w, f
        w += mp.mpf("0.05") if w < 10 else mp.mpf("0.2")
    return zeros


def main():
    mp.mp.dps = 40
    zeros = find_zeros(COUNT)

    golden = REPO / "tests" / "data" / "f4_zero_goldens.csv"
    golden.parent.mkdir(parents=True, exist_ok=True)
    with golden.open("w") as fh:
        fh.write("index,alpha,f_prime\n")
        for i, a in enumerate(zeros, 1):
            _, d1 = f4(a, derivs=1)
            fh.write(f"{i},{mp.nstr(a, 25)},{mp.nstr(d1, 20)}\n")

    # Extended pool in the runtime zero-cache format.  Alphas are rounded to
    # float64; the recorded residual is |F| at the rounded point.
    pool = REPO / "src" / "supergauss" / "data" / "f4_zeros_oracle.csv"
    pool.parent.mkdir(parents=True, exist_ok=True)
    with pool.open("w") as fh:
        fh.write("n,index,alpha,f_prime,residual\n")
        for i, a in enumerate(zeros, 1):
            alpha64 = float(a)
            val, d1 = f4(mp.mpf(alpha64), derivs=1)
            fh.write(f"2,{i},{alpha64!r},{float(d1)!r},{abs(float(val))!r}\n")

    print(f"wrote {golden} and {pool} ({COUNT} zeros)")


if __name__ == "__main__":
    main()
