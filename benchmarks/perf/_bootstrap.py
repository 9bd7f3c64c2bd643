"""Put this checkout's ``src/`` on ``sys.path``.

The benchmark measures the program from outside, so it must import the
checkout it sits in — never an installed copy — and refuse to run where
that program is missing.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'}: the program this benchmark "
             "measures is missing")
sys.path.insert(0, str(ROOT / "src"))
