"""The package exports only what the toolkit itself, or a stated reason, uses.

Every name ``qcs/__init__.py`` imports must be referenced from some other
module of ``src/qcs`` (a sweep, the harness or the CLI builds on it), or be
on the keep-list below with its reason: a documented file format, a
classical baseline or a test oracle, or a name an acceptance test calls.
A name that none of these uses is dead surface; delete it rather than
adding it here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qcs"

KEEP = {
    "save_stream": "format: the documented photon-stream file",
    "load_stream": "format: the documented photon-stream file",
    "RunManifest": "format: the manifest.json every run writes",
    "ExperimentConfig": "format: the parsed config JSON that load_config returns",
    "emit_results": "format: the checksummed CSV writer",
    "SensingMatrix": "baseline: the classical sensing matrices",
    "gaussian_matrix": "baseline: acceptance 11's Gaussian matrix",
    "one_hot_matrix": "baseline: acceptance 10's one-hot sampler",
    "omp_solve": "baseline: acceptance 11's OMP decoder",
    "rip_check": "baseline: acceptance 10's restricted-isometry check",
    "RipReport": "baseline: what rip_check returns",
    "coverage_times": "oracle: the raw Bernoulli replay behind the exact curve",
    "CoverageEstimate": "oracle: what coverage_mc returns",
    "success_k2": "acceptance 01 and 02: the K = 2 closed form",
    "success_k3": "acceptance 01 and 02: the K = 3 closed form",
    "ScalingFit": "acceptance 04: what fit_scaling returns",
    "frequency_to_time": "acceptance 06: the lens map",
    "time_to_frequency": "acceptance 06: the lens map's round trip",
}


def _exports() -> dict:
    """Exported name -> the module it is imported from."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _referenced_names(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_or_kept_for_a_reason():
    exports = _exports()
    used = {
        path.stem: _referenced_names(path)
        for path in SRC.glob("*.py")
        if path.name != "__init__.py"
    }
    unused = sorted(
        name
        for name, module in exports.items()
        if name not in KEEP
        and not any(name in names for other, names in used.items() if other != module)
    )
    assert unused == [], f"exported but used by no other module and not kept: {unused}"


def test_keep_list_names_only_exports():
    assert sorted(set(KEEP) - set(_exports())) == []

