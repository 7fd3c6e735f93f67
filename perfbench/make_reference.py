"""Regenerate the committed reference outputs from the current qbm code.

Usage (from the root of a checkout): python3 perfbench/make_reference.py
Writes perfbench/reference/<workload>.json for every workload that has one
(coeffs-quantum, fpe-grid; the ensemble is checked statistically instead).
Run it only when a change is meant to alter the numbers, and say why.
"""

import json

from workloads import REFERENCE_DIR, WORKLOADS

if __name__ == "__main__":
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        if hasattr(cls, "make_reference"):
            with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
                json.dump(cls(0).make_reference(), fh, indent=1)
                fh.write("\n")
            print(f"wrote {REFERENCE_DIR / name}.json")
