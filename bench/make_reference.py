"""Write bench/reference.json from the program at the current commit.

    python3 bench/make_reference.py

The file holds, for the full-size assess workloads, the log-likelihood of
every fitted model, and, for aux_simulate_km, the simulated samples.  The
benchmark fails an operation whose fit lands more than 1e-6 below the stored
log-likelihood or whose simulated times differ from the stored ones.  Only
regenerate it when a change is meant to alter those numbers, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH_DIR, WORK, import_curecheck, run_command


def main() -> int:
    import_curecheck()
    from curecheck import cli
    from workloads import REFERENCE_PATH, AssessWorkload, AuxWorkload, workloads

    tmp = WORK / "reference"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    ref = {"log_likelihood": {}, "simulate": {}}
    try:
        for work in workloads().values():
            work.prepare(tmp, seed=1)
            if isinstance(work, AssessWorkload):
                code, out, err = run_command(cli, work.warmup()[0])
                rows = json.loads(out)["model_table"]
                ref["log_likelihood"][work.ref_key()] = {
                    f"{r['family']} {'cure' if r['cure'] else 'non-cure'}": r["log_likelihood"]
                    for r in rows
                }
            elif isinstance(work, AuxWorkload):
                sims = {}
                for argv in work.operation()[:-2]:
                    run_command(cli, argv)
                    family = argv[argv.index("--family") + 1]
                    lines = work.sim_out[family].read_text().split()[1:]
                    sims[family] = {
                        "times": [float(line.split(",")[0]) for line in lines],
                        "events": "".join(line.split(",")[1] for line in lines),
                    }
                ref["simulate"][f"n={work.sim_n}/seed={work.sim_seed}"] = sims
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH.relative_to(BENCH_DIR.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
