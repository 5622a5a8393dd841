"""Byte-stable output: sha256 of the CLI's stdout for every model, and of the
JSON verification report for seeds 1 to 5 (seed 0 is pinned in
`test_cli.py`).  The hashes were recorded while classification still read the
coset table's translation orbit, so they pin that the word closure gives the
same text, byte for byte."""
import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbiforge
from orbiforge import verify
from orbiforge.cli import main
from orbiforge.fpgroup import sign_homs
from orbiforge.wallpaper import MODEL_NAMES, model

KINDS = ("classify", "classify --sign", "double-cover", "verdict")


def argvs(kind, name):
    """The command lines of one kind for one model; `classify --sign` runs
    once per sign map that `sign_homs` accepts, in its order."""
    if kind == "classify --sign":
        pres = model(name).presentation
        return [["classify", name, "--sign",
                 ",".join(f"{g}={s}" for g, s in zip(pres.generators, hom.signs))]
                for hom in sign_homs(pres)]
    return [[kind, name]]


def transcript(kind, name):
    """Each command line with its exit code and stdout, concatenated."""
    out = []
    for argv in argvs(kind, name):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        out.append(f"$ {' '.join(argv)} -> {code}\n{buffer.getvalue()}")
    return "".join(out)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


CLI_GOLDEN = {
    ('classify', 'p1'):
        '8b0089eefc10dfc65ebae09a2a887bb3a72a1c9effb8c06f84738a8495db245b',
    ('classify', 'p2'):
        '9bc8c304a87b21df782283310951695382c7329d347c4e8b9cab3b5426be18de',
    ('classify', 'p3'):
        '4dd7d5547e92881d5aa401e3c146cb5570c441c0fcd51d6c0590f09d1edc8a70',
    ('classify', 'p4'):
        '3d9a71e5680c610a7c546d0238e3e12365b9dd5627e875e2e0e833b5c8ce8fa4',
    ('classify', 'p6'):
        '5866d45e83cd18c94b321df8f8772a8e1ca004de7a37ca7d8cb65adb08ac649f',
    ('classify', 'pm'):
        '25ecb858d28a0419f5acc04ef07f31e4b4a790236d896bb7e839fa8d5662aff9',
    ('classify', 'pg'):
        '87b17d058774cb661a36ac9a95b5f35f4f3244d06548ec9150e3687ad844a625',
    ('classify', 'cm'):
        '876b329b5dc928a0f389382a02dbb999cbeeed1ec55619ec622b71cf4d128dd2',
    ('classify', 'pmm'):
        '2b7d98397a507b6859046526d041f4d26dce592fc17973806a42929e116e2750',
    ('classify', 'pmg'):
        'f762021b8a8f9678da309cbdb23009aa0bff97a186007ce5c506a6f18203087e',
    ('classify', 'pgg'):
        'eb7ef23a2d04aebb6f1e3c3301d9291ead85dedca9d8f170047a198afda5f111',
    ('classify', 'cmm'):
        'a9185b73fdf4769cb1d0d7a38fd1f9838ddc26413d75634e1562f66b423de2d0',
    ('classify', 'p4m'):
        '89519de690646d67211005395ae941b0e31d57a07afd52d1cbcf692bd54537c1',
    ('classify', 'p4g'):
        'b0bdbd870f5d4bb99c14e9da85ea9d5b06f7fc34f0cfacf38ea0b1bc068a58a6',
    ('classify', 'p3m1'):
        '00cfe0647b3cdef6ec17d2f47c1f3936af9988b1aa01b2460a4cb238b77090f2',
    ('classify', 'p31m'):
        '14e805ff3b300c7dc875d73598d8c62bced63d0b30e2e4c43cb9b1eb0e4cdb67',
    ('classify', 'p6m'):
        'ddf6bc5fb6df496c9b45c5ffb5d7800fa5536c8e4925d434440311e93cbc4cb8',
    ('classify --sign', 'p1'):
        '94f0b931c02d48aeac5ce98f6dacdbe8783f24506615c614c5120a74c221f72e',
    ('classify --sign', 'p2'):
        '7c7f55de2e0c6e0fd0ac3a4efbc22285ac24d2be9d7943e5547164e9f94ee7ca',
    ('classify --sign', 'p3'):
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ('classify --sign', 'p4'):
        '4b363e8310afa31d59ad4ffa90e02676605d99c36c76e8c003c68d6b5a2ce169',
    ('classify --sign', 'p6'):
        '16134f264869929e357966af0acf851d2c9d07d19e731944d22de46c0057a1ae',
    ('classify --sign', 'pm'):
        '175edc8d725a4e40355eab5b9aa63a00726e9148e26fee31f14afae95b09dbb4',
    ('classify --sign', 'pg'):
        '7fe63608c7479de942daf1746b45434eff77b6010542699b7129ffbbe5a654ee',
    ('classify --sign', 'cm'):
        '5dc2532a78daf361c877f8958f49af0360580e133a47462933db612c9a055ac4',
    ('classify --sign', 'pmm'):
        'ff8a99219f7de37b060f4f50f5984413768694f98bf1b2ab043b372d7bbc6059',
    ('classify --sign', 'pmg'):
        '2fed811ebd3212ea177223236cd789a406b8b999654e6a2dda0b61b63812b4a1',
    ('classify --sign', 'pgg'):
        '4dcbafef2acda8bdad1d3369efc9e83983418568c2b6512d52d38a97bcb689a8',
    ('classify --sign', 'cmm'):
        'debf6d072fd2e7392b01fd11d46c6579699f480b52f2b2eefc13fae066f47114',
    ('classify --sign', 'p4m'):
        'eadb38a74ca10786b981fbd24b86d74d960a1d4bd6af650fb182521c797ebd01',
    ('classify --sign', 'p4g'):
        '3cff5369256ef2d4c5d1d0706ccfddd1ba7fa02bd6a6298445d85e2b63f7ae27',
    ('classify --sign', 'p3m1'):
        '657551d52e2b719b00923909b1e2fc8fea9878b08dc7b21b7a7fc63d0cccb66e',
    ('classify --sign', 'p31m'):
        '05e389f0903ec74e3c1c4b64dd96de0d7e08dd9ff714f53669680b8fdc0401f0',
    ('classify --sign', 'p6m'):
        '43171792c1e162158d6c5bd9db9dfb4404c2d4371c42368164420bb5932350b1',
    ('double-cover', 'p1'):
        '1f0c4264749cf67749bc660d3ce491aff5c80ef5cca835afa06dd6b8ab44faa3',
    ('double-cover', 'p2'):
        '519b0966979e84cbb266152305de2acb6aa822ae4cc3e1b6b4215c4dfcdee5ac',
    ('double-cover', 'p3'):
        '9b12e3e7acc9c6a1499c84342752fdcc80126b21d71d20b33beebe791de7baf4',
    ('double-cover', 'p4'):
        'efc4935cc38e628f214615e44f8c64378780689202f561bcc7ad0018b63dd7a1',
    ('double-cover', 'p6'):
        '91a4a4147631b5945c292fa3bea29e8906e372a3ed92d4fb88c141fcd0bb1215',
    ('double-cover', 'pm'):
        '503f969b1924df15fd3b88fde4f9490c2d7f75f35a16dde1d9ac621c8598ef03',
    ('double-cover', 'pg'):
        'e51c8fd8a99569b2e331ea652fdb357b8256da92912ff217e8abbd571fff3c43',
    ('double-cover', 'cm'):
        'e9ab1f3dd411269e9f9ff436a1338ce628e516364547e7c52ad39208ea7a883f',
    ('double-cover', 'pmm'):
        'b435eca2315ff66ef12553f0451ff0fb4f2984c4d0ab33dd8c788068a7092e36',
    ('double-cover', 'pmg'):
        '391b8b304ae0e3c1f9abc777b5d146a4447fdd192c7f582f41ead229faf48af6',
    ('double-cover', 'pgg'):
        'f8712d94377bc9f3e41be7d51af0632065f3a7c900c11ba1246cd16189b17a5a',
    ('double-cover', 'cmm'):
        '1f8ff1a3044d972ba77e7861e151069177aa33c6e770a5ce7c1ab0288cc07d3f',
    ('double-cover', 'p4m'):
        'bbcab9f99035358df371d416a183ef423e45784a31440a865850a2475294e7e8',
    ('double-cover', 'p4g'):
        '1344860b0e2d29569f92120764952fbb6520ade73c3a652da2d78d34c925cfd0',
    ('double-cover', 'p3m1'):
        'f1f486d4dcbc408b1a9c7c1453ae75c58312a59825416baaee9da6ec1fe59811',
    ('double-cover', 'p31m'):
        '4f54692f6ee21af28d68e88a08d9b53e01752f45bdef8e7cfde976a9ad18bf97',
    ('double-cover', 'p6m'):
        'c802c44da19921b9768171ff8e325a5228b2a9663b90b70b40cd5c84d5dea416',
    ('verdict', 'p1'):
        '5956774bf3e22f0a8a556a13f5187bb2fa74caecf80352d336aa8e6f2ef703cf',
    ('verdict', 'p2'):
        '87efb53efe72e458f17eceb9bc9f3c3341b7cce7132509e3e506262fa82737d2',
    ('verdict', 'p3'):
        'bf782ab8e5f78e2d0e8510bfc5ea5a7bd23a938ae4c54177c3eff285e2de09ad',
    ('verdict', 'p4'):
        'b114e2e5a8efedeff279c1b2b38ae7dc050f04be749013f081c61ee546cb4721',
    ('verdict', 'p6'):
        '028095270622859e7d66e6443638c92fa06d4a9ac5e4bfeaf3a63d25ce5108b8',
    ('verdict', 'pm'):
        'a6accfbfb216629fc6578e808d49d4a6fa7c6b06b558544269b4f27500eec3d9',
    ('verdict', 'pg'):
        '85ed14520e9cbf55c2df727f7afe3b269839f47c85147eaeb1ffda50ca3d3469',
    ('verdict', 'cm'):
        '039a4d9e1b26a00679335f61cd0ecff1aa7a8b3bcd1868eb02a182b31929f04a',
    ('verdict', 'pmm'):
        'ffa347a163c9f40ca665d743f537a363eaf9e2ff7e1005923f96a0feab57ebb1',
    ('verdict', 'pmg'):
        '9cba116384195df534e5f42ffa61100f5625b5e29ac242d4972b38b64536b9e7',
    ('verdict', 'pgg'):
        '951c96fcd5b16d89f6b2ad60a05ff1efed215e662ac8fd634491d274da9041b4',
    ('verdict', 'cmm'):
        '4d304c3ce85f20388a9713a88a188f1abf964527d586654f3634e0ea97e42d3d',
    ('verdict', 'p4m'):
        '9e70b85ade47b05b5bc0d38bbcd16e4ea4971e8d2a994fcff8486d30c1e35c2e',
    ('verdict', 'p4g'):
        '0307f3a2b6393c405f3cd02cf31a41e3f222df556a03b464d3ce8c4f9d4fcb65',
    ('verdict', 'p3m1'):
        '6407fd641939c7ba0935997aa9a23b74def3dfdbc3d95bb0c5b5720dddd0cf2a',
    ('verdict', 'p31m'):
        '25d41c6c1956ac6862bce27f5a94cbe9b7fc97bf14d89ebeccf82403cf5f28d8',
    ('verdict', 'p6m'):
        '49c07f3f25bbd304578a2ce5417707bc96a6550a5448d50bd5aac81facdbc63c',
}

REPORT_GOLDEN = {
    1: '3f365642b718113e0dd427e68d6f2b95483682b4580f4c277fa317f6028cadc6',
    2: '27be533ae4f008bff4f0ac1ae2d04fc486883384ff5c020131197034a066abf9',
    3: '33d36d29c30684d2fcbb2466c1c0c38f5c7064aec3ed119bd8a1cd673c7423c5',
    4: '2f0a76699d66c462b1790a3fec82098d100df6278bfb58a7a438ec4d962dac42',
    5: '987472665501c541565d84568d94000733210f6e937dd63fa40d3cd4bb1c840f',
}


def test_goldens_cover_every_model_and_kind():
    assert set(CLI_GOLDEN) == {(kind, name) for kind in KINDS for name in MODEL_NAMES}
    assert sum(len(argvs("classify --sign", name)) for name in MODEL_NAMES) == 74


@pytest.mark.parametrize("kind, name", list(CLI_GOLDEN))
def test_cli_output_is_byte_stable(kind, name):
    assert sha256(transcript(kind, name)) == CLI_GOLDEN[kind, name]


@pytest.mark.parametrize("seed", list(REPORT_GOLDEN))
def test_report_is_byte_stable(seed):
    text = verify.report_json(verify.run_verification(seed=seed))
    assert sha256(text) == REPORT_GOLDEN[seed]


# A digest of output that iterates over sets and dicts on its way: the
# seed-3 report, `classify` and `verdict` of every whole group, and the sign
# maps of p6m.  It prints the digest and the hash of a string, which shows
# the hash seed the process ran under.
SEED_SENSITIVE = """
import contextlib, hashlib, io
from orbiforge import verify
from orbiforge.cli import main
from orbiforge.fpgroup import sign_homs
from orbiforge.wallpaper import MODEL_NAMES, model

out = io.StringIO()
with contextlib.redirect_stdout(out):
    for name in MODEL_NAMES:
        main(["classify", name])
        main(["verdict", name])
text = verify.report_json(verify.run_verification(seed=3)) + out.getvalue()
text += repr([h.signs for h in sign_homs(model("p6m").presentation)])
print(hashlib.sha256(text.encode()).hexdigest(), hash("orbiforge"))
"""


def test_output_does_not_depend_on_the_hash_seed():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        exec(SEED_SENSITIVE, {})
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(orbiforge.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", SEED_SENSITIVE], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    here, there = buffer.getvalue().split(), run.stdout.split()
    assert here[1] != there[1]  # the two processes hash strings differently
    assert here[0] == there[0]
