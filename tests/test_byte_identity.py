"""Artifacts pinned by sha256 across versions of the code.

Every sweep artifact of the demo configs, a grid of `design` documents and a
few `verify` reports must hash to the literals below. A change that alters a
published number on purpose updates the literal and says so in CHANGES.md.
The hashes hold only for the numpy pinned in pyproject.toml's test extra,
whose Philox and normal streams every sweep draws from, and only on an x86
CPU with AVX2: numpy picks its complex multiply (FMA), complex abs and exp
loops at run time, and at its SSE4.2 baseline 22 of the 52 literals change.
"""

import contextlib
import hashlib
import io
import json
import tomllib
from pathlib import Path

import numpy as np

from loamsim import run_sweep, ser_points_to_csv, ser_points_to_json, sweep_config_from_dict
from loamsim.cli import main

_ROOT = Path(__file__).resolve().parents[1]

SWEEP_SHA256 = {
    "lofree_m4.csv": "79bfcd4f793becdc7eec2205de765c9cd687c53be7db51904b967684be0e67af",
    "lofree_m4.json": "b6f548fa0eb957f06a2321735ce9b0af5fa8f9599f7c018eaa923feea819c0d9",
    "orthogonal_weak_m4.csv": "de7f509db405f227f635facbbabb3ceb8e3aa215a52de06812b7105132255b92",
    "orthogonal_weak_m4.json": "032c526b51c240df8e9a0b45be5007dbfd33944aaa89020eebc12742031f81c0",
    "rayleigh_m64.csv": "217813fe48dbe2ca7436516360621f8115fd1016efdb075568cc436cc4000dc5",
    "rayleigh_m64.json": "c842c50cf4afe366a6ea90e5b87741432b6c39dd3e6516c35f2981f1879a5632",
    "strong_m4.csv": "87ca5157b2d50355ff42944908ac2d10274492658a66d2e53a395a16edc6441b",
    "strong_m4.json": "21742ef64fd4c40fb95d1638ce1e55a2eddcc41304a8f26117699078055cc22a",
    "weak_m4.csv": "16dae2333c11d19786d4a666e13bd0a9d5d4f6953842c21cc943f9359f748cb2",
    "weak_m4.json": "883c4743bfdcd24a2b92f44eba6db8005874edc965506ea11c07277bfae10bd9",
}

DESIGN_SHA256 = {
    "loam M=4 b=0j": "018de3cdb7aae2fe7a4c4894b0166f72edb89d1bf1396ffa98d2f643961f2300",
    "loam M=4 b=(0.3+0.1j)": "10812d72f5b43210ef43c9768adc378be4fc99d056b1b882ee5b35a681053044",
    "loam M=4 b=(5+0.1j)": "b014df6a1924933746d666ad3b45e28d89d6e3965802425909a140dfcb6ad989",
    "loam M=16 b=0j": "48ca08c013f2678e06f9c9a39ae7c3924012e19932e433bbcf7788d935293987",
    "loam M=16 b=(0.3+0.1j)": "5ea0b6192ab11a3780ce2d484321a7af162ca9c057cb33ad4701e2f87b3c2b91",
    "loam M=16 b=(5+0.1j)": "4acb659f7ceddaa4d6d98f28734ccc7ddcc553ae6e489772cf82a800e4571c75",
    "loam M=64 b=0j": "fddee55c8144c7d897d2c09e4be6c1547930ec0d3fd8d2ec1575df39ae78fbe1",
    "loam M=64 b=(0.3+0.1j)": "140846000f012ef006275e4da86304adcb3a4abb91ed6a735e9aaf6dc249894a",
    "loam M=64 b=(5+0.1j)": "c6dde2939c91f0a173591c260fabb956beaa8b7fa91ba6e2697c347e3c8514ef",
    "pam M=4 b=0j": "85dbd42b3528a234f69520d5fde5f590720de3232cdcf299e449f2e45dc70ef2",
    "pam M=4 b=(0.3+0.1j)": "992b909cf1468c1639a361c0231047b31499c82c6151eff7efd49f125dd800ea",
    "pam M=4 b=(5+0.1j)": "0606838a5c12725c4218854340cf62bdaeb6d57b0ccd35e954e9cca96b348c2b",
    "pam M=16 b=0j": "33bcd089e53d7604afbf7922ba576ca8da856b2fd0e5b0b1567a480a0c23bef4",
    "pam M=16 b=(0.3+0.1j)": "43cfc0e3aa8ae9e80e3e2ce7cda3df498a8cf66d7c6381829b349629fffe06d9",
    "pam M=16 b=(5+0.1j)": "36d17d4fc2d2bc06514a9190054f6ea4dc08c3be5523dd6ffe4e2bc25a5d1392",
    "pam M=64 b=0j": "e0f65e2dd17d571eb22683d7fa4a8b9ab3393981c03f1fe51df2c675f7b5faac",
    "pam M=64 b=(0.3+0.1j)": "9ecb273eb27d551b3ab74b12484223f22dfa84623919f08f6b07f1851fc85ced",
    "pam M=64 b=(5+0.1j)": "0c7393c6bbfe8174cd8e4a426f156010d896de47dceab0947beaea8ca9c0cf0b",
    "qam M=4 b=0j": "f18ade8c95dd1916fe21a02b6e22fc2b6614f473c97ea23b71a92a8751563a26",
    "qam M=4 b=(0.3+0.1j)": "82e390790fd040000e6b8f2ff2bce4b78155b1a5800d68688c8444ac06cdde22",
    "qam M=4 b=(5+0.1j)": "9ec0ee7003a61393fcdd9b170afe6f62f76f3c56ee4e1dc27f18f1324710dc77",
    "qam M=16 b=0j": "03d2fceaa4189aa6e43c2978e189f732516da69b19abb506e914c829ae0a2b30",
    "qam M=16 b=(0.3+0.1j)": "b04670dffedac3a29573ee268bf854b633a174fe7e198bec775bd4c4e2644a55",
    "qam M=16 b=(5+0.1j)": "74eda870e9c1af64ec5e40c1bb33c34464faa438696a42308e43711b974de198",
    "qam M=64 b=0j": "3538157dcb9505166933cab9968e6516c0d8fbe24788e39ced7f28f2be0273ff",
    "qam M=64 b=(0.3+0.1j)": "220ce48485454e3ed8fce953df818d2c42f29e719b5fe7b54684221711b2de8c",
    "qam M=64 b=(5+0.1j)": "13d16b2f5339ccec283df1eb88c451b2c68e217121d361cc6803e4e71b2f0e43",
    "psk M=4 b=0j": "177379a5e6a9aebdae0d1b89b7273f55f94627208c8c69ab6b09299837270810",
    "psk M=4 b=(0.3+0.1j)": "7693b4625ede15f8e3fefc69909f8567b12bc6f82eba49d7b2bfa3ac60cc2a1e",
    "psk M=4 b=(5+0.1j)": "5efff9e72d9f39832ec2470e58caf255ca314faa65eab5e329825918d25bed4f",
    "psk M=16 b=0j": "09e38bc5663c14cfd2504e246ce4f9a38146ab66df36f27c0f366006dbf3feb6",
    "psk M=16 b=(0.3+0.1j)": "560ae5ad7d728e019d03cabc36e49a16ab8de252fe27acf319515fbf0f94fc77",
    "psk M=16 b=(5+0.1j)": "84a2ab44c0a584542004329dc706a96de74fabd4f8661bbed8b9f9fc9efe73d9",
    "psk M=64 b=0j": "747a1e1027ae3bbf35a788bbd1d443d8b5bc68a7bf8defae667431534697ed17",
    "psk M=64 b=(0.3+0.1j)": "f0a6a61dd210fc61555680df95fe89a59aa3c0a2bc81c3e4b1c4bbb74c6f8fa1",
    "psk M=64 b=(5+0.1j)": "82a2fbb0ce4741a3f36779ec43b4c70d4b942624d15c2bde52d5910ec92091da",
}

VERIFY_SHA256 = {
    "M=2 seed=0": "b683ef748b6ff96cfe8710443dc6c87be2efd8483555d02a09f7ad6b35d1f426",
    "M=2 seed=1": "45bb5bf3cb7572e11d05191830db5d3e6b38782f45571b0b74a63197dfde9b73",
    "M=8 seed=0": "7ac37281758d21b8e8e5c63f56fe052f518319ba6a2252c694514093c5569cde",
    "M=8 seed=1": "68805b81c14230db6dd336cc45e3556e6820d46c85aef7eb6b2c6ede695305da",
    "M=64 seed=0": "7d262f86720e173ea1b83a55f21d12df380186bb54543698bb6eb20b17e3115e",
    "M=64 seed=1": "8af48885bce41f0e4b0606a66a3e936e00df682fe3a330adf518c895884f98bb",
}


def _numpy_pin() -> str:
    with open(_ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    return next(req.split("==")[1] for req in extra if req.startswith("numpy=="))


def _scope() -> str:
    """Where the literals hold, and the numpy and SIMD extensions found here."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        found = " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f]) or "none"
    except ImportError:
        found = "unknown"
    return (
        f"the artifact hashes hold for numpy=={_numpy_pin()} (pyproject.toml test extra) "
        f"on an x86 CPU with AVX2; here numpy {np.__version__} dispatches to the SIMD "
        f"extensions [{found}] (np.show_runtime())"
    )


def _require_pinned_numpy():
    assert np.__version__ == _numpy_pin(), _scope()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stdout(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    return out.getvalue()


def sweep_artifacts():
    """(name, text) of the CSV and JSON of every demo config, at 2 workers."""
    for path in sorted((_ROOT / "demos" / "configs").glob("*.json")):
        config = sweep_config_from_dict(json.loads(path.read_text()))
        points = run_sweep(config, workers=2)
        yield f"{path.stem}.csv", ser_points_to_csv(points)
        yield f"{path.stem}.json", ser_points_to_json(points)


def design_artifacts():
    """(name, stdout) of `design` over schemes x M x b at h = 0.8+0.3j."""
    for scheme in ("loam", "pam", "qam", "psk"):
        for order in (4, 16, 64):
            for b in (0j, 0.3 + 0.1j, 5 + 0.1j):
                yield f"{scheme} M={order} b={b}", _stdout(
                    "design", "--h-re", "0.8", "--h-im", "0.3", "--b-re", str(b.real),
                    "--b-im", str(b.imag), "--power", "1", "--order", str(order),
                    "--scheme", scheme,
                )


def verify_artifacts():
    """(name, stdout) of `verify --scenarios 3` at a few (M, seed) pairs."""
    for order in (2, 8, 64):
        for seed in (0, 1):
            yield f"M={order} seed={seed}", _stdout(
                "verify", "--order", str(order), "--scenarios", "3", "--seed", str(seed)
            )


def _check(artifacts, expected):
    _require_pinned_numpy()
    got = {name: _sha256(text) for name, text in artifacts}
    changed = sorted(name for name in got if got[name] != expected.get(name))
    assert not changed and got.keys() == expected.keys(), (
        f"artifacts changed: {changed}; {_scope()}"
    )


def test_sweep_artifacts_unchanged():
    _check(sweep_artifacts(), SWEEP_SHA256)


def test_design_artifacts_unchanged():
    _check(design_artifacts(), DESIGN_SHA256)


def test_verify_artifacts_unchanged():
    _check(verify_artifacts(), VERIFY_SHA256)
