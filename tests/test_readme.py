import re
from pathlib import Path

from tailcens import gamma2_from_p, mu, sigma_squared

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:  # later blocks use names the earlier ones define
        exec(compile(block, str(README), "exec"), namespace)
    # the example's model: gamma1 = 0.3, p = 0.7 and the default eta = 0.25
    assert namespace["sigma2"] == sigma_squared(0.5, 0.3, gamma2_from_p(0.3, 0.7)) > 0
    assert namespace["bias"] == mu(0.5, 0.3, -1.2)
    lo, hi = namespace["lo"], namespace["hi"]
    assert lo < namespace["result"].gamma1_hat < hi
