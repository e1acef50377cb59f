import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:  # later blocks use names the earlier ones define
        exec(compile(block, str(README), "exec"), namespace)
    constants = namespace["constants"]
    assert constants.alpha == 0.5 and constants.sigma2 > 0
    lo, hi = namespace["lo"], namespace["hi"]
    assert lo < namespace["result"].gamma1_hat < hi
