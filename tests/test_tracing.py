"""The benchmark's layer tracer finds every function it wraps, sees the CLI
calls through the names it patches, and leaves the package as it was."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def target_owner(mod_name, attr):
    """(namespace dict, key) of one TARGETS entry."""
    owner = sys.modules[mod_name]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return vars(owner), attr


def package_namespaces():
    """Every heckemod module namespace and class dict, keyed by object id."""
    spaces = {}
    for name, mod in list(sys.modules.items()):
        if name == "heckemod" or name.startswith("heckemod."):
            spaces[id(mod)] = vars(mod)
            for value in list(vars(mod).values()):
                if isinstance(value, type) and \
                        value.__module__.startswith("heckemod"):
                    spaces[id(value)] = vars(value)
    return spaces


def test_tracer_wraps_every_target_and_restores_it(capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    originals = []
    for mod_name, attr, *_ in tracing.TARGETS:
        importlib.import_module(mod_name)
        space, key = target_owner(mod_name, attr)
        originals.append((space, key, space[key]))
    before = {k: dict(space) for k, space in package_namespaces().items()}
    try:
        tracer.install()
        for (space, key, original), target in zip(originals, tracing.TARGETS):
            assert space[key] is not original, target
            assert space[key].__wrapped__ is original, target
        from heckemod import cli
        assert cli.main(["verify", "2", "1"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    # the CLI reaches the patched names: one command, one write, one gate run
    for name in ("cli.main", "cli.emit", "cli.verification_gates"):
        assert tracer.stats[name][0] == 1, name
    assert tracer.stats["moddata.build_modular_data"][0] == 3
    for space, key, original in originals:
        assert space[key] is original, key
    after = package_namespaces()
    for k, names in before.items():
        assert all(after[k].get(n) is v for n, v in names.items())
