"""Work that must run in a fresh process.

``python3 perfbench/probe.py '<json>'`` either

* times one fresh set-up: imports the program, opens a file and runs one
  small warm-up op, then prints the seconds that took (generating the
  warm-up inputs is not counted).  A fresh process is the only way to
  include the import and the program's lazy initialisation, which is
  what a user pays once per job; or
* (``"kind": "blocks"``) writes the analysis workload's input file with
  one block assignment per partition, so that the set-up write's memory
  does not count in the reading process's peak RSS.
"""

import json
import sys
import time


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, spec["bench"])
    t0 = time.perf_counter()
    import repro  # the import is part of the set-up

    setup = time.perf_counter() - t0
    import inputs

    if spec["kind"] == "blocks":
        fields = inputs.snapshot(spec["seed"], spec["shape"])
        with repro.open(spec["path"], "w") as f:
            for name, data in fields.items():
                ds = f.create_dataset(name, shape=data.shape, dtype=data.dtype,
                                      error_bound=inputs.BOUNDS[name])
                for region in spec["regions"]:
                    sl = tuple(slice(a, b) for a, b in region)
                    ds[sl] = data[sl]
        return
    if spec["kind"] == "analysis":
        import repro.cache

        t0 = time.perf_counter()
        f = repro.open(spec["path"], "r")
        repro.cache.configure(int(spec["budget"]))
        region = tuple(slice(a, b) for a, b in spec["region"])
        for name in inputs.FIELDS:
            f[name][region]
        f.close()
    else:
        fields = inputs.snapshot(spec["seed"], spec["shape"], step=1)
        prefix = "steps/00000/" if spec["kind"] == "steps" else ""
        t0 = time.perf_counter()
        f = repro.open(spec["path"], "w", nranks=2)
        for name, data in fields.items():
            f.create_dataset(prefix + name, data=data, error_bound=inputs.BOUNDS[name])
        f.flush()
        f.close()
    setup += time.perf_counter() - t0
    print(json.dumps({"setup_s": setup}))


if __name__ == "__main__":
    main()
