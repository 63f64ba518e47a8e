"""Where the benchmark finds the program it measures.

The benchmark runs from a checkout of the repository and imports the
``repro`` package from that checkout's ``src/`` only, never from an
installed copy, so a run measures exactly the source beside it.  The
compiled-backend cache (:mod:`repro.core.native`) is pointed inside the
checkout too, so a run reads and writes nothing else.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Build products and trace files; listed in the repository's .gitignore.
BUILD = ROOT / ".bench_build"


def bootstrap() -> None:
    """Make ``import repro`` resolve to this checkout's source.

    Raises ``SystemExit`` when the checkout holds no ``src/repro``: the
    benchmark alone, without the program, must fail rather than measure
    something else.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no repro package under {SRC}; run the benchmark from "
            "the root of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Inherited by the set-up interpreters and the procs workers.  TMPDIR
    # keeps the C compiler's scratch files of the backend build here too.
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "repro-native")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
