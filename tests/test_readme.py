import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_sketch_runs():
    # The README's Python example is the documented API: it must run as written.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library sketch\n", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    result = subprocess.run([sys.executable, "-c", sketch], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
