"""Record goldens.json: SHA-256 digests of the canonical outputs of every
item of pass 0 of each workload at seed 0 with the default corpus seed.

    python3 perfbench/record_goldens.py

Outputs are meant to stay byte-identical, so re-record only for a change
that alters them on purpose, and say so in its description.  Items whose
Betti table disagrees with the oracle are refused.
"""

import json
import sys

import workloads


def main():
    pr = workloads.import_posetres()
    oracle = workloads.import_oracle()
    goldens = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(pr, oracle, None)
        goldens[name] = {}
        for it in wl.items(0):
            out = it.run()
            reason = it.check(out)
            if reason is not None:
                sys.exit(f"{name} {it.id}: {reason}")
            goldens[name][it.id] = workloads.digest(wl.canonical(out))
        print(f"{name}: {len(goldens[name])} digests")
    with open(workloads.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
