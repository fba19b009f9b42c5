"""The package exports only what the toolkit itself, or a stated reason, uses.

Every name ``qcs/__init__.py`` imports must be referenced from some other
module of ``src/qcs`` (a sweep, the harness or the CLI builds on it), or be
on the keep-list below with its reason: a documented file format, a
classical baseline or a test oracle, or a name an acceptance test calls.
A name that none of these uses is dead surface; delete it rather than
adding it here.

The same holds one level down: every parameter of an exported callable, and
every field of an exported dataclass, that has a default must be passed by
some call in ``src/qcs`` or in the acceptance tests, or be on
``KEEP_DEFAULTS`` with its reason.  A default that only other tests change
is an option nothing needs.

Every exception class ``errors.py`` defines must be caught by name in
``cli.py``, which maps it to an exit code, or be on ``KEEP_ERRORS`` with its
reason: a class that no caller tells apart from its base is one to delete.

Every name assigned at module level in ``src/qcs`` must be read somewhere in
``src/qcs``: a constant that no code reads is left over from code since
deleted.

Only the sweeps split seeds: ``SeedSequence(...)`` and ``.spawn(...)`` are
called only in ``experiments.py`` and ``harness.py``, which give each case
its own seed.  A library function takes its ``seed`` through
``errors.seeded_rng``, the one caller of ``np.random.default_rng``, which
refuses, naming ``seed``, anything but the five kinds README lists.
"""

import ast
import dataclasses
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

import qcs
from qcs.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qcs"

KEEP = {
    "save_stream": "format: the documented photon-stream file",
    "load_stream": "format: the documented photon-stream file",
    "RunManifest": "format: the manifest.json every run writes",
    "ExperimentConfig": "format: the parsed config JSON that load_config returns",
    "emit_results": "format: the checksummed CSV writer",
    "gaussian_matrix": "baseline: acceptance 11's Gaussian matrix",
    "one_hot_matrix": "baseline: acceptance 10's one-hot sampler",
    "omp_solve": "baseline: acceptance 11's OMP decoder",
    "rip_check": "baseline: acceptance 10's restricted-isometry check",
    "coverage_times": "oracle: the raw Bernoulli replay behind the exact curve",
    "CoverageEstimate": "oracle: what coverage_mc returns",
    "success_k2": "acceptance 01 and 02: the K = 2 closed form",
    "success_k3": "acceptance 01 and 02: the K = 3 closed form",
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


# "name(param=)" -> why the default stays though no such call passes it
KEEP_DEFAULTS = {
    "load_config(threads=)": "perfbench/child.py passes threads=1; any other value is refused",
}


def _defaulted(obj) -> list:
    """(position, name) of each parameter, or dataclass field, with a default."""
    if dataclasses.is_dataclass(obj):
        params = [f for f in dataclasses.fields(obj) if f.init]
        has_default = [
            f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
            for f in params
        ]
    else:
        try:
            params = list(inspect.signature(obj).parameters.values())
        except ValueError:  # an exception class without an __init__ of its own
            return []
        has_default = [p.default is not p.empty for p in params]
    return [(i, p.name) for i, (p, d) in enumerate(zip(params, has_default)) if d]


def _passed() -> tuple:
    """Over every call in ``src/qcs`` and the acceptance tests: called name ->
    the keywords it is given, and called name -> the most positional
    arguments it is given.  A ``*`` or ``**`` argument passes everything."""
    keywords, positions = {}, {}
    for path in [*SRC.glob("*.py"), ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            given = {k.arg for k in node.keywords}
            keywords.setdefault(name, set()).update(given)
            spread = None in given or any(isinstance(a, ast.Starred) for a in node.args)
            positions[name] = max(positions.get(name, 0), math.inf if spread else len(node.args))
    return keywords, positions


def test_every_default_is_passed_or_kept_for_a_reason():
    keywords, positions = _passed()
    unpassed = {
        f"{name}({param}=)"
        for name in _exports()
        for index, param in _defaulted(getattr(qcs, name))
        if param not in keywords.get(name, ()) and index >= positions.get(name, 0)
    }
    unkept = sorted(unpassed - set(KEEP_DEFAULTS))
    assert unkept == [], f"defaults no call passes, and not kept: {unkept}"
    stale = sorted(set(KEEP_DEFAULTS) - unpassed)
    assert stale == [], f"kept defaults that a call now passes: {stale}"


def test_every_runner_takes_only_its_spec_and_seed():
    # a run setting such as a thread count belongs to no sweep
    from qcs.experiments import RUNNERS

    odd = {
        name: list(inspect.signature(runner).parameters)
        for name, runner in RUNNERS.items()
        if list(inspect.signature(runner).parameters) != ["spec", "seed_seq"]
    }
    assert odd == {}, f"runners taking more than (spec, seed_seq): {odd}"


# exception class -> why it stays though cli.py does not catch it by name
KEEP_ERRORS = {"InvalidArgument": "the ValueError a bad library argument raises"}


def _caught_names(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names.update(n.id for n in ast.walk(node.type) if isinstance(n, ast.Name))
    return names


def test_every_error_class_is_caught_by_the_cli_or_kept_for_a_reason():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    uncaught = sorted(defined - _caught_names(SRC / "cli.py") - set(KEEP_ERRORS))
    assert uncaught == [], f"error classes the CLI does not catch, and not kept: {uncaught}"
    assert sorted(set(KEEP_ERRORS) - defined) == []


def test_every_module_level_name_is_read():
    assigned, read = {}, set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n for t in targets for n in ast.walk(t)):
                    if isinstance(name, ast.Name):
                        assigned[name.id] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(f"{module}: {name}" for name, module in assigned.items() if name not in read)
    assert unread == [], f"module-level names that nothing in src/qcs reads: {unread}"


def _calls(tree, names) -> list:
    """The calls under ``tree`` to a function or method named in ``names``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in names
    ]


# modules where a sweep gives each case its own seed
SEED_SPLITTERS = {"experiments.py", "harness.py"}


def test_only_the_sweeps_split_seeds():
    calls = sorted(
        f"{path.name}:{node.lineno}"
        for path in SRC.glob("*.py")
        if path.name not in SEED_SPLITTERS
        for node in _calls(ast.parse(path.read_text(encoding="utf-8")), ("SeedSequence", "spawn"))
    )
    assert calls == [], f"SeedSequence or spawn called outside the sweeps: {calls}"


# (module, function) of the one place a seed becomes a generator
SEED_HELPER = ("errors.py", "seeded_rng")


def test_only_the_seed_helper_makes_generators():
    calls = []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(call)
            for func in tree.body
            if isinstance(func, ast.FunctionDef) and (path.name, func.name) == SEED_HELPER
            for call in _calls(func, ("default_rng",))
        }
        calls += [
            f"{path.name}:{node.lineno}"
            for node in _calls(tree, ("default_rng",))
            if id(node) not in allowed
        ]
    assert sorted(calls) == [], f"default_rng called outside {SEED_HELPER}: {calls}"


# every library function that takes a seed, called small
SEEDED = {
    "coverage_times": lambda seed: qcs.coverage_times(3, 0.7, 12, 10, seed=seed),
    "coverage_mc": lambda seed: qcs.coverage_mc(3, 0.7, 12, 10, seed=seed),
    "coverage_mc, dark": lambda seed: qcs.coverage_mc(
        3, 0.7, 12, 10, seed=seed, n_bins=8, dark_per_period=0.5
    ),
    "sample_arrivals": lambda seed: qcs.sample_arrivals(
        qcs.IntensityWaveform(values=np.ones(4), period=1e-9), 1e-8, seed=seed
    ),
    "tls_sample": lambda seed: qcs.tls_sample(
        ((1e9, 1.0),), qcs.TimeLensConfig(dispersion=1074e-24, window=1e-9), 10, 0.0, seed, 256
    ),
    "gaussian_matrix": lambda seed: qcs.gaussian_matrix(4, 8, seed=seed),
    "one_hot_matrix": lambda seed: qcs.one_hot_matrix(4, 8, seed=seed),
    "rip_check": lambda seed: qcs.rip_check(np.eye(4), 1, 0.5, 3, seed=seed),
}


# numpy raised a bare ValueError for -1 and a TypeError for 1.5 and "x",
# and took True and [1, 2]
BAD_SEEDS = [-1, 1.5, "x", True, [1, 2]]


@pytest.mark.parametrize("call", SEEDED)
@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_a_bad_seed_is_refused_naming_seed(call, seed):
    with pytest.raises(qcs.InvalidArgument, match="^seed must be"):
        SEEDED[call](seed)


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_a_bad_seed_never_reaches_run_confusion_tls(tmp_path, capsys, seed):
    # the one runner that makes generators does so from children of the
    # config seed's SeedSequence, and the config refuses these seeds first
    out = tmp_path / "out"
    path = tmp_path / "confusion.json"
    doc = {"experiment": "ConfusionTLS", "seed": seed, "output_dir": str(out)}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["run", "--config", str(path)]) == 2
    assert "'seed'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("call", SEEDED)
def test_each_kind_of_seed_runs(call):
    generator = np.random.default_rng(5)
    for seed in (None, 5, np.uint64(5), np.random.SeedSequence(5), np.random.PCG64(5), generator):
        SEEDED[call](seed)
    # the caller's own generator is drawn from, not a copy of it
    assert not np.array_equal(generator.random(4), np.random.default_rng(5).random(4))
