"""A fixed CLI session whose artifacts must stay byte-identical.

The session builds four complexes (T^3, Sigma_2 x S^1 with two layers, the
rotation mapping torus of the rotation-symmetric Sigma_2 and the barycentric
subdivision of T^3) and runs homology, cup, code, gate, distance and mcg
commands on them, then the bundled manifest.  Each artifact's sha256 is
compared with the digest recorded when the table was written; a refactor
that changes any byte of any JSON output fails here.  To re-record after a
deliberate output change, run ``PYTHONPATH=src python
tests/test_artifact_digests.py`` from the repository root and paste the
printed table.
"""

import hashlib
import os
import shutil

from tricode import serialize
from tricode.cli import main

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "manifests",
                        "t3.manifest.json")

COMPLEXES = ("t3", "p22", "mt", "sd")


def run_session() -> list[str]:
    """Run the session in the current directory; the artifact names in order."""
    serialize.write("twist.json", {"base_preset": "sigma-rot:2", "layers": 1,
                                   "kind": "rotation", "handles": 1})
    steps = [["complex", "build", "--preset", "t3", "--out", "t3.json"],
             ["complex", "build", "--preset", "product:2,2", "--out", "p22.json"],
             ["complex", "build", "--preset", "mapping-torus", "--twist", "twist.json",
              "--out", "mt.json"],
             ["complex", "subdivide", "t3.json", "--out", "sd.json"]]
    for k in COMPLEXES:
        steps += [["homology", "basis", f"{k}.json", "--dim", str(d), "--out", f"{k}.h{d}.json"]
                  for d in range(4)]
        steps += [["cup", "form", f"{k}.json", "--out", f"{k}.form.json"],
                  ["code", "build", f"{k}.json", "--type", "toric:3", "--out", f"{k}.toric3.json"],
                  ["code", "build", f"{k}.json", "--type", "toric:1", "--out", f"{k}.toric1.json"],
                  ["code", "build", f"{k}.json", "--type", "color", "--out", f"{k}.color.json"],
                  ["gate", "ccz", f"{k}.json", "--out", f"{k}.ccz.json"],
                  ["gate", "check", f"{k}.ccz.json", f"{k}.toric3.json", "--out", f"{k}.ccz.check.json"],
                  ["gate", "action", f"{k}.ccz.json", f"{k}.toric3.json",
                   "--out", f"{k}.ccz.action.json"],
                  ["gate", "t", f"{k}.color.json", "--out", f"{k}.t.json"],
                  ["gate", "check", f"{k}.t.json", f"{k}.color.json", "--out", f"{k}.t.check.json"],
                  ["gate", "action", f"{k}.t.json", f"{k}.color.json", "--out", f"{k}.t.action.json"],
                  ["code", "distance", f"{k}.toric3.json", "--sector", "z", "--out", f"{k}.dz3.json"],
                  ["code", "distance", f"{k}.toric1.json", "--sector", "z", "--out", f"{k}.dz1.json"]]
        if k != "sd":  # sd(T^3) has 26 vertices: its coset states exceed the 2^24 cap
            steps.append(["gate", "simulate", f"{k}.ccz.json", f"{k}.toric3.json", "--plus", "0,1,2",
                          "--fixed", "101", "--out", f"{k}.sim.json"])
    steps += [["mcg", "twist", "--genus", "2", "--curve", "a:1", "--out", "tw.json"],
              ["mcg", "torus-homology", "--matrix", "tw.json", "--coeff", "z2", "--out", "tz2.json"],
              ["mcg", "torus-homology", "--matrix", "tw.json", "--coeff", "z", "--out", "tz.json"]]
    names = ["twist.json"]
    for step in steps:
        main(step)
        names.append(step[step.index("--out") + 1])
    os.mkdir("manifest")
    os.chdir("manifest")
    shutil.copy(MANIFEST, "t3.manifest.json")
    if main(["run-manifest", "t3.manifest.json"]) != 0:
        raise RuntimeError("the bundled manifest failed")
    os.chdir("..")
    return names + sorted(f"manifest/{f}" for f in os.listdir("manifest"))


def digests() -> dict[str, str]:
    return {name: hashlib.sha256(open(name, "rb").read()).hexdigest()
            for name in run_session()}


DIGESTS = {
    'twist.json': '2410fa6181809d76e77e571e9556953e99b861519c67f7a4f4997fbdfabe8a00',
    't3.json': 'fc2e6493064e43441d58b2fc9caa16abf071ce7aa7d805d7b23d9498555353a0',
    'p22.json': 'f89c7b4b777b347084282e29d497cecbcb6bcf769c72068e7d86b33dab5b816c',
    'mt.json': '3c8a9cb14b4312730a56ad20f64d84b6d52e7eae33e9f94aadd5ebc553cf8a2c',
    'sd.json': 'b8c8bbfba9c8289faff92477a215c85cc98a92ac2549950d36e7d17c242a268c',
    't3.h0.json': 'd7a67ec69d2083204ec19b98c7a3229f994bf78650d10d36440e1e629182645f',
    't3.h1.json': '02aecd784a1e3bbb29b7a9011307f9d83bb7b9e8a3798b0f96f69618ed176cfc',
    't3.h2.json': '5b41234855f2ba1418ba56b92356addd53be4850df7b1713832d5983163b8cd8',
    't3.h3.json': '2f9f6722bba29cf54a6d46f84e6ff5dd1117bc45b98ea22fb1ba1803c755f248',
    't3.form.json': 'ca7a749b1118ee5b95fce27a87a4bc2d9cc38a212885e691853a12d789d8445c',
    't3.toric3.json': '4c48b2b4dd29b636a221474a8731f70d01b58cfc1615eab2ccdb79f72ec8361b',
    't3.toric1.json': '343cff008510da2ae1ee1475f3361fb5295ebe2c22a4b7039779ad75ce601eeb',
    't3.color.json': '1a1ebd0a465bc3b8bfee381bc0f65d5a70fb676ebfef935451f5580d1653d1b9',
    't3.ccz.json': 'ec4fa6d713af767c196262724e785aba855fe00ef9c972e3c493457c0eed0020',
    't3.ccz.check.json': 'a5a3c6ade95cca962f08f7c26d27bb1d6c5b9a4414af207281cef2398e589057',
    't3.ccz.action.json': 'ed04b274cd883b792a66952e35859796f978b34265cc524b572f21f858d793a0',
    't3.t.json': 'ec7b2293ec014ea190bb3ac2ba5539e7fd74907ec3be9701e09eb753a0ebcc70',
    't3.t.check.json': 'a36477ab1e9444df7528148803a4943332829c528d733544ad4654567501853e',
    't3.t.action.json': '5344b997089a97f1adb8bb0f9dcf575aa9ea897e2496f8f3bd37a101cb38e40e',
    't3.dz3.json': '7567962fd7d8d89ab9d382fdd35af40092eca330089bdde6d0bce511ae5b92b6',
    't3.dz1.json': '7567962fd7d8d89ab9d382fdd35af40092eca330089bdde6d0bce511ae5b92b6',
    't3.sim.json': '8c0207988201441166071b040a8e9515da9447b4f435464a2a80506f7a1f2e7c',
    'p22.h0.json': '839e6efe1f3d3635a2f8baef542ecef99838f605a6d9f94134403d11071e7d93',
    'p22.h1.json': '00d84368f46b783291d1c911ee2dcb7b3aeea7bf8e8a6c869fc846ccbbc1a73e',
    'p22.h2.json': '0f63ff3a752e0c2a454b10c9a4b420a8d82661b4dcdbf03a8bf215724c27b657',
    'p22.h3.json': 'b2791019043610aaeddc75d97eaff6ba2b7bb18cfa617848407cc053ecef07a7',
    'p22.form.json': '9c3b532fb824a160788fb946359e34b5d152e4cfe6748bfaa2aec356e4b08355',
    'p22.toric3.json': 'bd54b9803446104cd9a30a1b0f5293e1e08b000361f177a06f07582c3a5a88c8',
    'p22.toric1.json': 'cd2acf1360969db7779def4deedbb1d210510d617360a9518b9c1ebc1e8af642',
    'p22.color.json': '9fd7e793a011a769fdd85ce6777b9f052bf437e2487d503fc1bc510a00f06f2c',
    'p22.ccz.json': '4e03041c051315368619087a8c3350adc0c5aaa1359c725969c3d05cdde5af38',
    'p22.ccz.check.json': 'a36477ab1e9444df7528148803a4943332829c528d733544ad4654567501853e',
    'p22.ccz.action.json': '11a541662216b73f2e255552c432b026638538ff9f85270777773858c15b22ec',
    'p22.t.json': 'f502a245472ffd88ba2c094e612e9a6d341d65592c590539041f8a0d4a062ee6',
    'p22.t.check.json': 'a36477ab1e9444df7528148803a4943332829c528d733544ad4654567501853e',
    'p22.t.action.json': 'ca7dab16f3dd80dd8403aa8599fc1d74b78363f7fd92641c2a5b16f35e1eaedb',
    'p22.dz3.json': '7567962fd7d8d89ab9d382fdd35af40092eca330089bdde6d0bce511ae5b92b6',
    'p22.dz1.json': '7567962fd7d8d89ab9d382fdd35af40092eca330089bdde6d0bce511ae5b92b6',
    'p22.sim.json': '2c9abdfae298bc7c616f08c372b2a7763580fb89a549b0e427b9bcf975228b09',
    'mt.h0.json': '839e6efe1f3d3635a2f8baef542ecef99838f605a6d9f94134403d11071e7d93',
    'mt.h1.json': '3072aef25996c364e4e3e53ef9fcbb6d39f591ef493c95231813ec4b9ae9e777',
    'mt.h2.json': 'f2cf4efcd54c30320a785f326a9fb07eb361165b514f66077a45ac6409684ba1',
    'mt.h3.json': '9bf8337bd2e183b9df77361d064a8b092fd88420da88774e72bfbb58c19ed3fd',
    'mt.form.json': '2a08906154e12d2c86e47e270bc7c95fd1bf7ff58446b5ee6fc6056fcb584268',
    'mt.toric3.json': '160d6450f2a2f5c0c9d19d43ea7073b8546075f1c9130944fac71a388c01175b',
    'mt.toric1.json': '5538cf8df9f7ea3cce2c50f8b60d455348c0804d8f907eea41a929171b7c902c',
    'mt.color.json': '7090520ff2f325d0870f5bb02b74daf37df5fd8cf2e1e043e8a17d6488813d4a',
    'mt.ccz.json': '69f2e9987f32ca3567aeb6f432c5a57856defe2e89eaa32e0388b562740ddc58',
    'mt.ccz.check.json': 'a36477ab1e9444df7528148803a4943332829c528d733544ad4654567501853e',
    'mt.ccz.action.json': '0a86b2f64d26154d54f35ec3b866c8ca28d9b2081ab23698f2e9bc825cd1b7d0',
    'mt.t.json': '96028000eca6bd2f97c320e6b8d743e0cf9788f419a51cce3a3ae8c6723ad514',
    'mt.t.check.json': 'a36477ab1e9444df7528148803a4943332829c528d733544ad4654567501853e',
    'mt.t.action.json': '0a86b2f64d26154d54f35ec3b866c8ca28d9b2081ab23698f2e9bc825cd1b7d0',
    'mt.dz3.json': '7567962fd7d8d89ab9d382fdd35af40092eca330089bdde6d0bce511ae5b92b6',
    'mt.dz1.json': '7567962fd7d8d89ab9d382fdd35af40092eca330089bdde6d0bce511ae5b92b6',
    'mt.sim.json': '382f81b39916cb6a8e776dfe072c5657d0349d0fd11986afd787b9cc917c769d',
    'sd.h0.json': '42a737992f7ca5f1cde38f5f7b2f386323427a3099575f03ef9544a3a93e9fe3',
    'sd.h1.json': '7b22d199bb5b6de3a6c6efc5976b4e0314b7eb55bbf247ed0f289c6c0d2cdba8',
    'sd.h2.json': 'c05e60d9c7598150cf2b2eec24eb999489f5529ec454cd213de3226ee58d72ad',
    'sd.h3.json': '746a0f4d5e27978bbc85c63da969d5a0c676fbd0fff318b1b249b529953dca07',
    'sd.form.json': 'd4e46d48148f7564596fadd1a1e20e034cb2513970a7f2430df63614f782ed34',
    'sd.toric3.json': '60b3d8de0c4b2f98457c3c9362c94af8b0bc0b5b523ff459a085d7c4e95faffa',
    'sd.toric1.json': '44a9311845bffa2624bf2721f5b1674a0fbafe3d9036158f0cdb24677ce6a426',
    'sd.color.json': '95e0e522f2ffdfc7bf7ad12a58c4f08e0ae779168921be80a3922828e81d98ba',
    'sd.ccz.json': 'b133022e0d2ef093536285ebe9bf93d7693b8b99e6529de75a0deaebce24d082',
    'sd.ccz.check.json': 'a36477ab1e9444df7528148803a4943332829c528d733544ad4654567501853e',
    'sd.ccz.action.json': '65ca0b9c3b77ff65f572ab2bca16734c297e0731812b51804c9956cbb66e0812',
    'sd.t.json': '744f6781e3d2d34e15dc927d2b804f7c6050a8ea51abda2bef344ec065382083',
    'sd.t.check.json': 'a36477ab1e9444df7528148803a4943332829c528d733544ad4654567501853e',
    'sd.t.action.json': '5344b997089a97f1adb8bb0f9dcf575aa9ea897e2496f8f3bd37a101cb38e40e',
    'sd.dz3.json': 'c12bcf7dc4b78b750a3b3220a04bab483446c4721c11f33034d5c26d51b8e728',
    'sd.dz1.json': 'c12bcf7dc4b78b750a3b3220a04bab483446c4721c11f33034d5c26d51b8e728',
    'tw.json': '7db0d6c0dca30a24a37a94419232986e8cc02fdd561492fc09fee9a2a282d3e1',
    'tz2.json': 'e4238620435577fd42f432ed4fdcf968104758fe3945d93e89efc3125bcfb06a',
    'tz.json': 'b759243490d205ee77290bb9358392df58fcb80a43dcffcd177086f8c4f3ce42',
    'manifest/action.json': 'ed04b274cd883b792a66952e35859796f978b34265cc524b572f21f858d793a0',
    'manifest/betti.json': '162f29309e6d08c93f8dcb2972baef56570cbcad9a28d62c91c24869be262d4e',
    'manifest/ccz.json': 'ec4fa6d713af767c196262724e785aba855fe00ef9c972e3c493457c0eed0020',
    'manifest/check.json': 'a5a3c6ade95cca962f08f7c26d27bb1d6c5b9a4414af207281cef2398e589057',
    'manifest/code3.json': '4c48b2b4dd29b636a221474a8731f70d01b58cfc1615eab2ccdb79f72ec8361b',
    'manifest/form.json': 'ca7a749b1118ee5b95fce27a87a4bc2d9cc38a212885e691853a12d789d8445c',
    'manifest/hyper.json': '32982327f2d2734975119a3ecd47e963f87a3142734d08f1e284e7193e828525',
    'manifest/t3.json': 'fc2e6493064e43441d58b2fc9caa16abf071ce7aa7d805d7b23d9498555353a0',
    'manifest/t3.manifest.json': 'd41bab2f8fbacd341ecbd534cbbd9e4dbebee9fc2270d10fc55ae44718e62471',
    'manifest/valid.json': '7053924e2bd94004e488b952ff88fb5d335fe3973df3051cd8d1aba9491b6786',
}


def test_cli_session_artifacts_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = digests()
    assert list(got) == list(DIGESTS)
    assert [name for name in got if got[name] != DIGESTS[name]] == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, digest in digests().items():
            print(f"    {name!r}: {digest!r},")
