"""With orjson refusing every text, the reader's json.loads fallback alone
gives every pinned exit, answer and message of the input-document tests."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a pytest plugin: orjson.loads raises JSONDecodeError on every input
PLUGIN = '''
import orjson

refused = []


def loads(text):
    refused.append(len(text))
    raise orjson.JSONDecodeError("refused", "", 0)


orjson.loads = loads


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(f"orjson refused {len(refused)} texts")
'''


def test_input_tests_pass_on_the_fallback_alone(tmp_path):
    (tmp_path / "orjson_refuses.py").write_text(PLUGIN)
    path = [str(tmp_path), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "orjson_refuses",
         "-p", "no:cacheprovider", "tests/test_cli_inputs.py",
         "tests/test_fuzz_documents.py"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:]
    assert re.search(r"^orjson refused [1-9]\d* texts$", proc.stdout, re.M), proc.stdout
