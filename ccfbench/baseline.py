"""Reference figures for the ROADMAP baseline cases, in one fresh process.

    python3 ccfbench/baseline.py

Times each case once, in this order, with the same probe bracketing as
run.py, and prints raw seconds, seconds at the probe's reference speed and
the process's peak RSS after the case.  Takes about a minute.
"""

import resource
import sys

import run


def main() -> int:
    ob, import_s = run.import_oscbessel()
    print(f"import oscbessel: {import_s:.3f} s")
    spec = ob.ProblemSpec
    kink = lambda x: abs(x - 0.5)
    cases = [
        ("moment_table(0.2, 0.4, 0, w=200), N=4096",
         lambda: ob.moment_table(spec(0.2, 0.4, 0.0, 200.0), 4096)),
        ("ccf_integrate |x-0.5|, cached table, N=4096",
         lambda: ob.ccf_integrate(spec(0.2, 0.4, 0.0, 200.0, kink), 4096)),
        ("ccf_integrate |x-0.5|, cached table, N=4095",
         lambda: ob.ccf_integrate(spec(0.2, 0.4, 0.0, 200.0, kink), 4095)),
        ("reference_moments(0.2, 0.4, 0, w=200), k=0..256",
         lambda: ob.reference_moments(spec(0.2, 0.4, 0.0, 200.0),
                                      range(257), ob.OracleConfig(1e-13))),
        ("moment_table(0.2, 0.4, 0, w=1000), N=256, first in process",
         lambda: ob.moment_table(spec(0.2, 0.4, 0.0, 1000.0), 256)),
        ("moment_table(0.2, 0.4, 0, w=1000), N=256, second",
         lambda: ob.moment_table(spec(0.2, 0.4, 0.0, 1000.0), 256)),
        ("moment_table(0.2, 0.4, 0, w=2000), N=256 (fails)",
         lambda: ob.moment_table(spec(0.2, 0.4, 0.0, 2000.0), 256)),
    ]
    ob.ccf_integrate(spec(0.2, 0.4, 0.0, 200.0, kink), 4096)  # cache table
    for label, fn in cases:
        _, error, raw, norm = run.timed(fn)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{label}: {raw:.4f} s raw, {norm:.4f} s at reference speed, "
              f"peak RSS {rss:.0f} MB" + (f"; {error}" if error else ""),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
