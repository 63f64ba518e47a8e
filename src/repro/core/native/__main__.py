"""Backend probe: ``python -m repro.core.native``.

Prints the backend ``auto`` resolves to and any build errors; exits 0
when the compiled backend loaded or ``REPRO_FORCE_PURE`` asked for pure,
1 otherwise.  A package ``__main__`` runs beside the already imported
:mod:`repro.core.native`, so the probe reads the one resolution cache
the library uses.
"""

import sys

from repro.core.native import backend_info

if __name__ == "__main__":
    info = backend_info()
    print(f"repro native backend: {info['backend']}")
    for name, err in info["build_errors"].items():
        print(f"  {name}: {err}", file=sys.stderr)
    sys.exit(0 if info["compiled"] or info["force_pure"] else 1)
