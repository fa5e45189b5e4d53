"""Record the output references of one workload, for every input seed.

    python3 perfbench/record_reference.py mise_closed

Run this only on the library version whose outputs define correctness;
it overwrites perfbench/reference/<workload>.json.
"""

import shutil
import sys

import run  # pins the thread variables before numpy loads

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import workloads  # noqa: E402


def main(name: str) -> None:
    workload = workloads.WORKLOADS[name]
    seeds = {}
    for seed in range(workloads.POOL):
        workdir = run.WORK_DIR / f"record-{name}-{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            outcomes = run.measure(workload, seed, False, workdir)[0]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        seeds[str(seed)] = run.record(workload, outcomes)
        print(f"{name}: input seed {seed} recorded", flush=True)
    checks.save_reference(
        name, {"workload": name, "git_sha": run.environment()["git_sha"], "input_seeds": seeds}
    )


if __name__ == "__main__":
    main(sys.argv[1])
