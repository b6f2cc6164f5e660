"""Self-test of the benchmark's verdicts.

    python3 ccfbench/selftest.py

For every workload, on the inputs of seed 1, it runs one round of every
operation kind and asserts that each output passes its checks, except the
kinds known to fail, which must be counted as failed without ending the
round.  Then, for each operation in turn, it moves that operation's first
checked quantity by four times its tolerance and asserts that this
operation, and no other, is reported as wrong.  Exits 0 when every
assertion holds.
"""

import sys

import run


def selftest_workload(ob, workloads, name, seed) -> list:
    problems = []
    workload = workloads.build(name, seed, ob)
    workload.prepare(run.identity)
    ops = run.run_round(workload, 0, run.identity, {})
    tally = run.Tally()
    tally.add(ops)
    known = sum(k.expect_fail for k in workload.kinds)
    if tally.problems:
        problems += tally.problems
    if tally.failed != known or tally.attempted != len(workload.kinds):
        problems.append(f"{name}: {tally.failed} of {tally.attempted} "
                        f"failed, expected {known} of {len(workload.kinds)}")
    for op in ops:
        if op.kind.expect_fail and op.error is None:
            problems.append(f"{name}: {op.kind.name} no longer fails")
    for i, op in enumerate(ops):
        if op.error is not None:
            continue
        flagged = [other.kind.name for j, other in enumerate(ops)
                   if run.judge(other, shift=4.0 if i == j else 0.0)[0]
                   == "wrong"]
        if flagged != [op.kind.name]:
            problems.append(f"{name}: shifting {op.kind.name} flagged "
                            f"{flagged}")
    print(f"{name}: {len(ops)} kinds, {tally.failed} known failures, "
          f"{'ok' if not problems else 'FAILED'}", flush=True)
    return problems


def main() -> int:
    ob, _ = run.import_oscbessel()
    import workloads
    problems = []
    for name in workloads.WORKLOADS:
        problems += selftest_workload(ob, workloads, name, 1)
    for p in problems:
        print("SELFTEST", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
