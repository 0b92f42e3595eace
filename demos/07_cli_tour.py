"""A programmatic tour of the command-line interface.

Every subcommand is driven through ``qsell.cli.main`` with the bundled
config files, producing the same artifacts a shell invocation would:

    python3 -m qsell.cli solve    --config demos/configs/two_uniform.json
    python3 -m qsell.cli simulate --config ... --samples 50000 --seed 1
    python3 -m qsell.cli verify   --config ...
    python3 -m qsell.cli compare  --config ... --out comparison.csv
    python3 -m qsell.cli info     --config ... --types 0.6,0.75,0.9

Artifacts land in a temporary directory, listed at the end and removed
when the tour finishes.
"""

import json
import pathlib
import tempfile

import numpy as np

from qsell.cli import main as qsell_cli

HERE = pathlib.Path(__file__).resolve().parent
CONFIGS = HERE / "configs"


def banner(cmd):
    print("\n" + "=" * 72)
    print("$ qsell " + " ".join(cmd))
    print("=" * 72)


def run(cmd):
    banner(cmd)
    rc = qsell_cli(cmd)
    print(f"[exit code {rc}]")
    return rc


def main():
    with tempfile.TemporaryDirectory(prefix="qsell-demo-") as tmp:
        out = pathlib.Path(tmp)
        two = str(CONFIGS / "two_uniform.json")
        ramp = str(CONFIGS / "reserve_ramp.json")

        run(["solve", "--config", two, "--out", str(out / "mechanism.json"),
             "--csv-dir", str(out)])
        run(["simulate", "--config", two, "--samples", "50000", "--seed", "1",
             "--out", str(out / "simulation.json")])
        run(["verify", "--config", two])
        run(["compare", "--config", two, "--out", str(out / "comparison.csv")])
        run(["info", "--config", ramp, "--types", "0.6,0.75,0.9",
             "--out", str(out / "partition.csv")])

        # an irregular buyer entered as an explicit table
        grid = np.linspace(0.0, 1.0, 513)
        s = 0.08
        z = 1.0 / (s * np.sqrt(2.0 * np.pi))
        pdf = 0.5 * z * (
            np.exp(-0.5 * ((grid - 0.25) / s) ** 2)
            + np.exp(-0.5 * ((grid - 0.75) / s) ** 2)
        )
        bimodal_cfg = out / "bimodal_ramp.json"
        bimodal_cfg.write_text(json.dumps({
            "schema_version": 1,
            "buyers": [{"distribution": {
                "family": "table", "grid": grid.tolist(), "pdf": pdf.tolist(),
            }}],
            "quality": {
                "distribution": {"family": "uniform", "lo": 0.0, "hi": 1.0, "m": 513},
                "alpha": {"family": "constant", "value": 1.0},
                "reserve": {"family": "linear", "slope": 1.0},
            },
        }))
        run(["solve", "--config", str(bimodal_cfg)])

        print(f"\nartifacts written under {out}:")
        for p in sorted(out.iterdir()):
            print(f"  {p.name}  ({p.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
