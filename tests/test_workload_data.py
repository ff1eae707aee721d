"""Workload input data is pinned, and building it never needs NumPy.

The Livermore loops, the synthetic kernels and the generated programs
draw their data from ``repro.workloads.rng``.  The sha256 of each
``initial_memory.fingerprint()`` below was recorded when that data still
came from ``numpy.random.default_rng``; a change to the generator, to a
factory's draw order or to a word's type (``3`` against ``3.0``) fails
here before it moves a cached result or the results digest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.workloads import ALL_SYNTHETIC, SIZE_PRESETS, livermore_suite

from tests.support import generated_programs

FINGERPRINTS = {
    "LLL1@quick":
        "d7d7bcf24acc3b7fea5219db7883b281cae4e9b1a4fcd39669d001dd1e4c699e",
    "LLL2@quick":
        "a83bd26574c1b05bb9f56ff185473459f0008d5d8143d612870016146903a83d",
    "LLL3@quick":
        "d410b917808dd51663e2ac88eaf593e7bfb5b36e52a7f6e524bd7b8f09e1ba84",
    "LLL4@quick":
        "5e11439775878c94b39e2f4e3fd1673b3a11d499104760af5d296d5dd1f4cbcb",
    "LLL5@quick":
        "83ba323cf0f20cb3e63750acf6db18eebc0de5f2a03345a02fba6e76effdda0d",
    "LLL6@quick":
        "375a4667789f70e4d64b3afe76f795b873517719e1da8bdb8b0249b6f7bb6e4e",
    "LLL7@quick":
        "2b1f9d049d941f32f3f4827950b916ecb091ca2cc0ef2e4edce587a6a14023c0",
    "LLL8@quick":
        "e1e27ae5edb1e0aa29596f5a26c506da23fc96508f2024d5dc4f38d9d316349a",
    "LLL9@quick":
        "74656c58111cc3ca9ee37f5da00abf51acdec7da43be95468f72c121a846dbd8",
    "LLL10@quick":
        "94e25bfd19e9ee988e58f018543e01041ad4a8f819ad9afd66c1277964c9a6fe",
    "LLL11@quick":
        "4f72ce9def73ccea7a30ea69b049c523adbf902272cbf32941793c44d50fb629",
    "LLL12@quick":
        "5ed8877234674fc4b76c98855d0f7eed913c71f90afa1f90704e7d73fc2441be",
    "LLL13@quick":
        "e171c2fee3affc57ba859854540a17d20caf66ddf508b020b919bec2b6fd5bc7",
    "LLL14@quick":
        "43d1a9c03a3adb06ff417888facdf81c4022e84bbc65702c60f55d3fdb143482",
    "LLL1@default":
        "a941bc4faf5b2fc9937a2ac358101e5e0ea16e1eee8aa2d87f5d2f783a4e83fe",
    "LLL2@default":
        "fef90bf27482bc9d4691015eba09350a4a1da90d4aa43c9d45a4d9c4362a106b",
    "LLL3@default":
        "f2b9eda8b814390074daca8c38a001f5d4c8848dbeeda01c1b5797313c24613b",
    "LLL4@default":
        "23155cf8d40559d14fa4f4acc4d75e1b59bce3c13d3cfff80ba4ea0fed0c75a9",
    "LLL5@default":
        "2dc2c7f092fb0684f64320b3efb46ba7f80a23a85e9a94935f839ef0dad6900f",
    "LLL6@default":
        "7af96c39dd8720c8489c1f25b31a57ca903bd14fe4dbf63438973a67668cd602",
    "LLL7@default":
        "27f5c3488b27f1a196981cbca4a8d7edb87c2c47af36baca1d41b6de8db557d9",
    "LLL8@default":
        "3b0fb022b7b528d7495fe5f02b15672c67dd831792d62fcc6e30fe14a4c927ec",
    "LLL9@default":
        "b0e8e6c33a50c166d74be6a944742c4c787bcbbaf08a2b7c2a843081eddbdee7",
    "LLL10@default":
        "51de8a9825352210e9f095cc447d9909e743506efc1f580f7189a3230d99ba3c",
    "LLL11@default":
        "bc45b4cdaf473ddf24d2bc6067dbb2260557fa2da537bda060234bd96ca867f2",
    "LLL12@default":
        "4a3caac57e535d6a31d068bbe019fb6d658b05d989db954a9154247096481856",
    "LLL13@default":
        "ace260dd63e811a1f9f3ddc4134eaece56965addabf4e73167f4a15296fa3202",
    "LLL14@default":
        "83e721dcc82c90b82935caef411cc6339d50f70f9a07c00ec653f4e414fb18c7",
    "LLL1@paper":
        "b55bada8e0261c03ab3947d8e10987a89059fce3e3f3ef12c530a036950113e8",
    "LLL2@paper":
        "e698786aec601ae481c7d003e5c35f0162ed1bcc92270751f9ae90f81818c791",
    "LLL3@paper":
        "7287509a98deb945e7d313e1b53cfdc2ae8e20ede04de9036f84e9c5edba53ce",
    "LLL4@paper":
        "1b3272491cd5e35a8527fc8ce7a2520f551d47bcd4f234c3832b032c92d5cbc5",
    "LLL5@paper":
        "a75af1c40f1a2e7fb4e2acbfa7bfed492809d908ed445c1fc0b8613ae50393cb",
    "LLL6@paper":
        "af64cf026c45b8570b94e3234b6433ea7f4116d35530b9f9546547edc3ac3390",
    "LLL7@paper":
        "cdb64d39c63f3e5c01672d709f786d86fc52ffaf889a2679eba86628c43e68ef",
    "LLL8@paper":
        "38f1464da2ca45904123ceda4b58e00de2b6e1cae173e3132b0a9ffc80fff70e",
    "LLL9@paper":
        "97cab95ab8d4f880c3e1332cce661b57a903b9498571302bb40b4715ada477aa",
    "LLL10@paper":
        "adf2104714eb659bbd0cc3f6c3ff56c4e99141a2833159ae876431f5c69849d3",
    "LLL11@paper":
        "2f570fbc1594681830993b423718b683ec3e4607f0ea25a53cb64fa0a5f8a3ff",
    "LLL12@paper":
        "490f85b4ecd3c300416452d1088c0703aba16b57ddfedfcb8fe435b74d69d82c",
    "LLL13@paper":
        "627d13059aedc7233764caaee5abbd52a8f63f7390b057dcd47f5e81e2288c7d",
    "LLL14@paper":
        "00170c092d47a3125f6b76f72560765788b658478a1b8ac00629ce1abcfa3ea5",
    "chain":
        "915bba14cd875e0a579b0acd13a4e8f87a771b45d9ae12b3c6a28969fe59b4df",
    "streams":
        "18614fd2e742f672e1b82814c7418267b83a103c2bd0d73a6b18e3a1b9be9a26",
    "alias":
        "2fc335d6b8b2b871abe9466787e1cb1eafbccf875c6de79a7e7ca36a125a01e0",
    "branchy":
        "61181de180d3d1f8b8384dda5ed6910442f2085f6ee05104fe526a42e1eb8382",
    "pressure":
        "67620ad2e446976bbec2eea6c5f1a8f81f567df4e3455cf758706222dbe2614b",
    "faultprobe":
        "981bef5c8f327194f3e5dc38b5a81e23e28bedf6629d336e3dabcd88dee8e4f4",
    "gen-s2-m50-w4-b0-x1":
        "0a7d93dda1090db3d39662897b35e891dd404a3860f76d3a17bc8215b0bf3236",
    "gen-s3-m25-w64-b3-x2":
        "08230a38c508eb8eef3c425ac7c9ca80003453ba8b286aa16b74a148d4d66b0a",
    "gen-s2-m50-w4-b0-x2":
        "1476dcb799cbb0bd2d79aaa88276fcec1cfbb31466e2c6b5aa0aa6d2fba17c18",
    "gen-s3-m25-w64-b3-x3":
        "854fd0aec9245d96014ec2507743208c66cb0de9cfe94cfe3c031309f8c665af",
}


def pinned_workloads():
    for preset in SIZE_PRESETS:
        for workload in livermore_suite(preset):
            yield f"{workload.name}@{preset}", workload
    for factory in ALL_SYNTHETIC:
        workload = factory()
        yield workload.name, workload
    for seed in (1, 2):
        for workload in generated_programs(seed):
            yield workload.name, workload


def test_workload_data_is_pinned():
    seen = {
        key: hashlib.sha256(workload.initial_memory.fingerprint())
        .hexdigest()
        for key, workload in pinned_workloads()
    }
    assert seen == FINGERPRINTS


NO_NUMPY_RUN = """
import sys
sys.modules["numpy"] = None   # any import of numpy now raises
import repro
from repro.analysis.parallel import SimPoint, run_point
from repro.machine import MachineConfig
from repro.workloads import (
    ALL_SYNTHETIC, SIZE_PRESETS, GeneratorSpec, generate_workload,
    livermore_suite,
)
from repro.trace import FunctionalExecutor

workloads = [w for p in SIZE_PRESETS for w in livermore_suite(p)]
workloads += [factory() for factory in ALL_SYNTHETIC]
workloads.append(generate_workload(GeneratorSpec(seed=3)))
for workload in workloads:
    memory = workload.make_memory()
    FunctionalExecutor(workload.program, memory).run()
    assert not workload.validate(memory), workload.name
result = run_point(SimPoint("ruu-bypass", workloads[0],
                            MachineConfig(window_size=12)))
assert result.instructions > 0
print(sys.modules["numpy"] is None, len(workloads))
"""


def test_workloads_run_without_numpy():
    """With ``numpy`` unimportable, every preset, kernel and generated
    program builds and validates, and a point simulates."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RUN],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["True", "49"]

