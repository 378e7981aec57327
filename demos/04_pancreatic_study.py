"""Case-control pancreatic cancer study, two biomarkers
=======================================================

The bundled study (90 pancreatic cancer cases, 51 pancreatitis controls)
measures a cancer antigen (CA 125) and a carbohydrate antigen (CA 19-9).
Neither biomarker is remotely Gaussian, so the crude binormal curve
collapses, while the mixture ensemble tracks the empirical curve.

Produces the side-by-side AUC table and, for each biomarker, the full
set of output files via the same entry point the CLI uses.
"""

from pathlib import Path

from mixroc import EmConfig, MgConfig, compare_table
from mixroc.cli import RunConfig, run

DATA = Path(__file__).resolve().parent.parent / "data" / "wieand_pancreatic.csv"

reports = []
for marker, label in (("ca125", "CA 125"), ("ca199", "CA 19-9")):
    out_dir = Path(f"demo_pancreatic_{marker}")
    config = RunConfig(
        input_path=str(DATA),
        score_col=marker,
        label_col="status",
        em=EmConfig(seed=0),
        mg=MgConfig(m=1000, seed=0),
        out_dir=str(out_dir),
        plots=True,
        reproducible=True,
        source_name=label,
    )
    report = run(config)
    reports.append(report)
    print(f"{label}: wrote report.json, curves, models and SVG plots to {out_dir}/")

print()
print(compare_table(reports))
