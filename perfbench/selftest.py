"""Self-test of the benchmark's output checks: corrupted results must fail.

Runs real tssim commands once, confirms their documents pass, then corrupts
one field at a time and confirms the check reports it. Finally runs the
closed loop with a `cli.main` that corrupts the ground energy it writes,
and with one that exits non-zero, and confirms every operation fails. From the repository root:

    python3 perfbench/selftest.py

Exits 0 when every gate fired and every clean result passed.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

import run  # sets the BLAS thread limit before numpy loads
from workloads import Dense, H2, energy_bound


def run_docs(cli, op) -> list:
    docs = []
    for argv in op.argvs:
        if cli.main(argv) != 0:
            raise RuntimeError(f"tssim {' '.join(argv)} failed on a clean input")
        with open(argv[argv.index("--output") + 1], encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs


def main() -> int:
    sys.path.insert(0, run.SRC)
    _, cli = run.import_tssim()
    failures = []

    def expect(label: str, op, docs: list, should_pass: bool) -> None:
        problems, _ = op.check(docs)
        if bool(problems) == should_pass:
            failures.append(label)
        print(f"{'ok  ' if bool(problems) != should_pass else 'FAIL'} {label}: "
              f"{'; '.join(problems) or 'passes'}")

    def corrupted(docs: list, edit) -> list:
        out = copy.deepcopy(docs)
        edit(out)
        return out

    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        h2 = H2(0, workdir).op(0)
        docs = run_docs(cli, h2)
        expect("h2 clean", h2, docs, True)
        expect("h2 ground energy off by 1e-9", h2, corrupted(
            docs, lambda d: d[0].__setitem__("ground_energy", d[0]["ground_energy"] + 1e-9)), False)
        expect("h2 encoding cnots 81", h2, corrupted(
            docs, lambda d: d[0]["select_path"].__setitem__("encoding_cnots", 81)), False)
        expect("h2 groups 3", h2, corrupted(
            docs, lambda d: d[0]["decomposition"].__setitem__("groups", 3)), False)
        expect("h2 taylor route off by 2e-3", h2, corrupted(
            docs, lambda d: d[0]["estimates"]["taylor"].__setitem__(
                "energy", d[0]["estimates"]["taylor"]["energy"] + 2e-3)), False)

        dense = Dense(0, workdir)
        est = dense.op(0)
        docs = run_docs(cli, est)
        case = dense.sums[0]
        expect("estimate clean", est, docs, True)
        expect("estimate energy off by 1.01 bounds", est, corrupted(
            docs, lambda d: d[0].__setitem__(
                "energy", case.ground + 1.01 * energy_bound(case.one_norm, 1.0))), False)
        expect("estimate ran another estimator", est, corrupted(
            docs, lambda d: d[0].__setitem__("estimator", "other")), False)

        trip = dense.op(2)
        docs = run_docs(cli, trip)
        expect("round trip clean", trip, docs, True)
        expect("decompose v_block entry off by 1e-6", trip, corrupted(
            docs, lambda d: d[0]["terms"][0]["v_blocks"][0][0].__setitem__(
                0, d[0]["terms"][0]["v_blocks"][0][0][0] + 1e-6)), False)
        expect("decompose residual field 1e-3", trip, corrupted(
            docs, lambda d: d[0].__setitem__("residual", 1e-3)), False)
        expect("verify not ok", trip, corrupted(docs, lambda d: d[1].__setitem__("ok", False)), False)

        # The loop itself: a program that writes wrong energies fails every op,
        # and one that exits non-zero fails too.
        real_main = cli.main

        def wrong_energy(argv):
            code = real_main(argv)
            out = argv[argv.index("--output") + 1]
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["ground_energy"] = doc.get("ground_energy", 0.0) + 1.0
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            return code

        for label, fake in (("loop with corrupted output", wrong_energy),
                            ("loop with exit code 3", lambda argv: 3)):
            cli.main = fake
            tally = run.Tally()
            try:
                run.measure(cli, H2(0, workdir), 0.0, tally)
            finally:
                cli.main = real_main
            fired = tally.attempted > 0 and tally.failed == tally.attempted
            if not fired:
                failures.append(label)
            print(f"{'ok  ' if fired else 'FAIL'} {label}: {tally.failed}/{tally.attempted} failed; "
                  f"{tally.problems[0] if tally.problems else ''}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("self-test " + ("passed" if not failures else "FAILED: " + ", ".join(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
