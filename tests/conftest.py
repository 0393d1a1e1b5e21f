"""Make the helpers in this directory (``forms_oracle``, ``golden.regen``)
importable under any pytest import mode."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
