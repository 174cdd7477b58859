"""Sweep the corridor width and watch fuel plateau.

Reproduces the width-sensitivity experiment on London -> Warsaw under a
strong, narrow eastward jet whose core lies north of the trip. The table
shows fuel stepping down as the corridor widens and then staying at the
full-width optimum, while the number of expanded nodes keeps growing.
The full-width row is the baseline run itself.

The jet is written to a CSV file and read back as `csv:<path>`, the same
way a user supplies real weather.

Run with:  PYTHONPATH=src python3 demos/corridor_sweep.py
"""

import os
import tempfile

from skyroute import GeoPoint, PlanRequest, bench_width, make_jet_stream
from skyroute.weather import save_csv

LONDON = GeoPoint(51.47, -0.45, 10_000)
WARSAW = GeoPoint(52.17, 20.97, 10_000)


def main():
    jet = make_jet_stream((30.0, 65.0, -15.0, 35.0), core_lat=53.5,
                          core_speed=110.0, half_width=1.75, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "jet.csv")
        save_csv(jet, path)
        request = PlanRequest(origin=LONDON, destination=WARSAW,
                              weather=f"csv:{path}", substeps=1)
        rows = bench_width([request])

    print("London -> Warsaw, corridor width sweep, 41x11x3 lattice, "
          "jet core 53.5N at 110 m/s")
    print(f"{'w':>3} {'fuel kg':>9} {'expanded':>9}")
    for row in rows:
        print(f"{row['param_value']:>3} {row['fuel_hybrid_kg']:>9.1f} "
              f"{row['expanded_hybrid']:>9.0f}")

    full = rows[-1]["fuel_hybrid_kg"]
    plateau = next(r["param_value"] for r in rows
                   if r["fuel_hybrid_kg"] == full)
    print(f"\nfrom w={plateau} on, fuel equals the full-width optimum "
          f"({full:.1f} kg); wider corridors only expand more nodes.")


if __name__ == "__main__":
    main()
