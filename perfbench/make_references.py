"""Regenerate references.json: drift and generator matrices of every ladder model.

    python3 perfbench/make_references.py

Runs the same CLI commands as the ladder workload, for each of the
LADDER_SEEDS model seeds, and stores the matrices that `checks` compares.
Regenerate only when a change is meant to alter these numbers.
"""

import json
import tempfile
from pathlib import Path

import run  # pins the thread pools and puts src/ on the path
from checks import REFERENCES, reference_entries, to_pairs
from ladder import write_ladder


def main():
    models = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        tmp = Path(tmp)
        for seed in range(run.LADDER_SEEDS):
            for name, path in write_ladder(seed, tmp).items():
                entry = {}
                for command in ("generator", "drift"):
                    out = tmp / "out.json"
                    code = run.cli.run([command, str(path), "--out", str(out)])
                    if code != 0:
                        raise SystemExit(f"{command} {seed}/{name} exited {code}")
                    doc = json.loads(out.read_text())
                    entry[command] = {k: to_pairs(v)
                                      for k, v in reference_entries(command, doc).items()}
                models[f"{seed}/{name}"] = entry
                print(f"{seed}/{name}", flush=True)
    REFERENCES.write_text(json.dumps({"models": models}, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
