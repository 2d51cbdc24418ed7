"""repro — a reproduction of "The Dark Alleys of Madison Avenue:
Understanding Malicious Advertisements" (Zarras et al., IMC 2014).

The package contains both the paper's measurement pipeline and everything
it needs to run offline: a simulated web-advertising ecosystem, an emulated
browser with a from-scratch JavaScript-subset engine, an Adblock-Plus
filter engine, and simulated oracles (Wepawet-style honeyclient, blacklist
tracker, VirusTotal).  See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import run_study, StudyConfig, build_table1

    results = run_study(StudyConfig(seed=2014, days=4))
    print(build_table1(results).render())
"""

from repro.analysis.arbitration import analyze_arbitration
from repro.analysis.categories import categorize_malvertising_sites
from repro.analysis.clusters import analyze_clusters
from repro.analysis.networks import analyze_networks
from repro.analysis.sandbox import audit_sandbox_usage
from repro.analysis.tables import build_table1
from repro.analysis.tlds import tld_distribution
from repro.core.incidents import IncidentType
from repro.core.results import StudyResults
from repro.core.study import Study, StudyConfig, run_study
from repro.datasets.world import World, WorldParams, build_world
from repro.service import ScanService, ServiceConfig

__version__ = "1.0.0"

__all__ = [
    "IncidentType",
    "ScanService",
    "ServiceConfig",
    "Study",
    "StudyConfig",
    "StudyResults",
    "World",
    "WorldParams",
    "analyze_arbitration",
    "analyze_clusters",
    "analyze_networks",
    "audit_sandbox_usage",
    "build_table1",
    "build_world",
    "categorize_malvertising_sites",
    "run_study",
    "tld_distribution",
]
