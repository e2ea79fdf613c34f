#!/usr/bin/env python3
"""Write every fixture automaton, its difference constructions, and its
counterexample implementation to an output directory as JSON documents plus
Graphviz DOT renderings.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from apa_toolkit.counterexample import counterexample
from apa_toolkit.difference import over_diff, under_diff
from apa_toolkit.io_cli import export_dot, serialize
from tests.fixtures import all_failing_pairs, refining_pair


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/graphs", help="output directory")
    ap.add_argument("--level", type=int, default=2,
                    help="level for the under-approximating difference")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    models = {}
    for name, (n1, n2) in all_failing_pairs().items():
        models[f"{name}_n1"] = n1
        models[f"{name}_n2"] = n2
        models[f"{name}_over"] = over_diff(n1, n2)
        models[f"{name}_under{args.level}"] = under_diff(n1, n2, args.level)
        models[f"{name}_cex"] = counterexample(n1, n2)
    r1, r2 = refining_pair()
    models["refining_n1"], models["refining_n2"] = r1, r2

    for name, model in models.items():
        (out / f"{name}.json").write_text(serialize(model))
        (out / f"{name}.dot").write_text(export_dot(model))
        print(f"wrote {out / name}.{{json,dot}}")
    print(f"\nrender with: dot -Tpng {out}/<name>.dot -o <name>.png")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
