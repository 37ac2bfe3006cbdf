import os
from pathlib import Path

from hypothesis import settings

# pyproject's pythonpath reaches only this process; the interpreters that
# tests start (python -m rootsum) read PYTHONPATH, so put the checkout's
# src first there too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")
