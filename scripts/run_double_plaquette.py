#!/usr/bin/env python3
"""Two-plaquette 2D flux-string decay on 19 qubits (exact in the Gauss-law
sector, plus Trotter)."""
import sys
from pathlib import Path

from lgt.cli import main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "double_plaquette_2d.json"

if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "out/double_plaquette"
    sys.exit(main(["run", str(CONFIG), "--out", out]))
