"""Set-up time of a fresh process: import dynbc and parse the given specs.

    python3 bench/setup_probe.py <src-dir> <spec.json> [<spec.json> ...]

Prints the seconds from the first line of this script to the end of the
parsing.  Interpreter start-up before the first line is not included.
"""

from time import perf_counter

_T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> None:
    sys.path.insert(0, argv[0])
    import dynbc.cli  # noqa: F401
    from dynbc import ProblemSpec, PsiSpec

    for path in argv[1:]:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        ProblemSpec.from_dict(raw)
        PsiSpec.from_text(raw["certificate"]["psi"])
        for psi in raw.get("sweep", {}).get("psi", ()):
            PsiSpec.from_text(psi)
    print(f"{perf_counter() - _T0:.9f}")


if __name__ == "__main__":
    main(sys.argv[1:])
