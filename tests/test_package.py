"""The package's public surface is its modules' ``__all__`` lists.

``cosmocap/__init__.py`` star-imports each module, so a module's
``__all__`` is the one place a public name is declared.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from cosmocap import baseline, bounds, constants, cosmo, dimq, largenum

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = (baseline, bounds, constants, cosmo, dimq, largenum)
# the package's submodules a plain `import cosmocap` loads; cli is loaded only on demand
SUBMODULES = {"baseline", "bounds", "constants", "cosmo", "dimq", "formulas", "largenum"}


def _public_names_of_a_fresh_import() -> set[str]:
    code = (
        "import json, cosmocap; "
        "print(json.dumps([n for n in dir(cosmocap) if not n.startswith('_')]))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_the_package_exports_exactly_its_modules_public_names():
    exported = [name for module in MODULES for name in module.__all__]
    assert len(exported) == len(set(exported))  # each name is declared by one module
    assert _public_names_of_a_fresh_import() == set(exported) | SUBMODULES
    assert len(set(exported) | SUBMODULES) == 88


def test_each_exported_name_is_its_modules_object():
    import cosmocap

    for module in MODULES:
        for name in module.__all__:
            assert getattr(cosmocap, name) is getattr(module, name), name
