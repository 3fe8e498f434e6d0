import sys
from pathlib import Path

# The benchmark's modules import each other as top-level names, the way
# ``python3 bench/run.py`` sees them.
BENCH = Path(__file__).resolve().parents[1]
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
