"""The benchmark's tracer wraps treegrow names from outside; each must still exist.

``perfbench/tracing.py`` is loaded as it is, and every target it lists is
resolved the way its installer resolves it, so a refactor that removes or
renames a wrapped name fails here and not only in a benchmark run.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = load_tracing()
    targets = [(module, attr) for _, module, attr in tracing.SPANS + tracing.COUNTS]
    assert targets
    missing = []
    for module_name, attr in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            # methods are replaced through the class __dict__, so inherited ones do not count
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and callable(vars(cls).get(meth))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing


def test_benchmark_self_test_passes():
    """``perfbench/run.py --self-test`` runs traced ops end to end, so it needs the hooks to behave.

    It fails when a wrapped function changes what the tracer reads from it,
    for example ``GrowthStep.prob`` ceasing to be a Fraction or ``step_probs``
    changing its arguments, which resolving the names alone cannot see.
    """
    root = TRACING.parent.parent
    done = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--self-test"],
                          cwd=root, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
