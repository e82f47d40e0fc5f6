"""Makes the helpers of the tier-1 tests, such as the reference chain, importable here."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
