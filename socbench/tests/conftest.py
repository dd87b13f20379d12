"""Put the repository's src/ on sys.path so the tests import socdfn from it."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
