"""Import the program from this checkout's ``src/`` for the benchmark's tests:

    python3 -m pytest -q bench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
