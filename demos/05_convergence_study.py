"""A miniature convergence study through the experiment harness.

The single-mode case has the semi-analytic kernel as its reference, so
no fine-mesh solve is needed and the study runs in seconds.  Reports
carry the raw errors, pairwise rates, and a least-squares fitted rate,
and serialize to CSV or markdown.
"""
import tempfile

from frstokes.experiment_harness import StudyConfig, run_spatial_study

# A spatial study refines M and holds N fixed, so N is one value; it is
# generous so the first-order temporal error stays below the spatial error
# even at M = 16
cfg = StudyConfig(
    case="mode",
    alpha=(0.5,),
    M=(2, 4, 8, 16),
    N=1024,
    scheme="lumped-linearized",
    cache_dir=tempfile.mkdtemp(prefix="frs-demo-"),
)
(report,) = run_spatial_study(cfg)

print(report.to_markdown())
print("same thing as CSV:\n")
print(report.to_csv())
print("second-order spatial convergence, measured against the contour")
print("kernel rather than a refined mesh.")
