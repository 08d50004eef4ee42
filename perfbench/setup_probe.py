"""One cold set-up of a workload, timed in a fresh interpreter.

    python3 perfbench/setup_probe.py [--generator] MODEL [MODEL ...]

Set-up is what a user pays before the first operation: importing ldlgen
(with numpy and scipy), then for each model `load_model`,
`spectral_decompose` and `TMatrix` construction; with --generator also
`build_generator` and `compressed()`.  Prints {"setup_s": seconds}.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def set_up(model_paths, generator=False):
    """In-process set-up; returns the loaded objects per model path."""
    from ldlgen import TMatrix, load_model, spectral_decompose
    from ldlgen.generator import build_generator

    loaded = {}
    for path in model_paths:
        spec = load_model(str(path))
        tm = TMatrix(spec, spectral=spectral_decompose(spec))
        gen = build_generator(tm).compressed() if generator else None
        loaded[str(path)] = (spec, tm, gen)
    return loaded


def main(argv):
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import ldlgen.cli  # noqa: F401  (part of what a user imports)

    generator = "--generator" in argv
    set_up([a for a in argv if a != "--generator"], generator)
    print('{"setup_s": %r}' % (time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
