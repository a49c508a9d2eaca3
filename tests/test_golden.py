"""Golden CLI outputs: the SHA-256 of the exit code and stdout of fixed
runs, so a refactor that changes one byte of a verdict, a witness or a
Massey representative fails here.

Each digest is of "<exit code>\\n<stdout>" with HERMFORM_ASCII unset.
The formality sweep and the cohomology runs (`--json`, and the text of
every theory) cover every `catalog.default_instances()` entry, the
n = 5 models included.  A digest changes only with an intended
change of output; recompute it then and say why in the change.
"""

import hashlib
import io

import pytest

from hermform import catalog
from hermform.cli import run

FORMALITY = {
    "torus:1":
        "65174c37b68afa38080192486351be3ab10b2dd6450e410e9f10e76269347bc3",
    "torus:2":
        "65174c37b68afa38080192486351be3ab10b2dd6450e410e9f10e76269347bc3",
    "torus:3":
        "65174c37b68afa38080192486351be3ab10b2dd6450e410e9f10e76269347bc3",
    "iwasawa":
        "1c2765c9c5b1a7b7a60a5671f2d2d44178041e8aa675071d050acf50a33f6a4f",
    "example1:invariant":
        "2540946e4f1fdce1eb1ec9bce93c003fb18e2ef2482ab1271b3035dbc8a78f8e",
    "ce:u=0,v=1":
        "8279cb6738f4327b3e320a80c7ab4af37355ed80c3ec2f0076871703d06de164",
    "ce:u=1,v=1":
        "5e4de3e9791eb9574f086f85df1285d9681e19166c1c894ab21baf738c53ba6a",
    "ce:u=1,v=2":
        "1c9e5545df0340d9b9aa9eff59ab1f1bbc9ecd30016ba98cb3311a76a9896517",
    "nakamura:III.2":
        "1c2765c9c5b1a7b7a60a5671f2d2d44178041e8aa675071d050acf50a33f6a4f",
    "nakamura:III.3":
        "6c4633aa8de5a3626eadbd2f6c0409769f7258e5ed410e2eb52945b6742ec972",
    "nakamura:IV.2":
        "6b711c325f26895c8ccd26bd8d864755c14de49d5d55bcafe1cc40111488afe1",
    "nakamura:IV.3":
        "85aa484557a962bdb5f0923c8b441529ec8ce0b914d1f935aa7bf79692c01937",
    "nakamura:IV.4":
        "34ef4de0de5eecab0460036802e235d18ac9b96d553eaccfc7f2b2a9c68ac933",
    "nakamura:IV.6":
        "0bf05cedbac7cdba4cb9aca47b6aca1361dd5d08c979f146952684375a18bd07",
    "nakamura:V.10":
        "2b79045281120956f1610f59e2b49ac15d82b82163544a63d38f740ef7a7132e",
    "nakamura:V.12":
        "8ae111e3c8387198233028fe92c0342ec3ea776badc19ffd31db965d90e8781b",
    "nakamura:V.15":
        "54a9fb1975363bccb7fbb838fc85aa7811421c164f77d4dd5a9522bf48fe2ca9",
    "nakamura:V.2":
        "c33afe08d83aef82311407a576a275ab8ad6cdef9b16c2dd324a113a11dde93b",
    "nakamura:V.3":
        "7a070f69cb77afd1808c43541592609e018e23fe20fb0926b9bf5e8aab46bbc3",
    "nakamura:V.4":
        "02791bf921ece82ae936c8722bc9e1c4959a58d90920c22a52cba0c003f54e16",
    "nakamura:V.5":
        "57cf1a97e024eab3c90a43c93b16537a1dbd65e32fe3947505450148f15793ff",
    "nakamura:V.6":
        "bbb47fa3584f33b46e83ffc82a34129161885d7c858cb13bfe11a6b9d6b18234",
    "nakamura:V.7":
        "aaee14f559609a8e8fdf2e214f0801802f8085ea24e2704d59b6c042ce7bcdca",
    "nakamura:V.8":
        "2b79045281120956f1610f59e2b49ac15d82b82163544a63d38f740ef7a7132e",
    "nakamura:V.9":
        "001c298d122540794ad9bd27fb379bfcec641d83c3414b7b4fa5e3ef4babf961",
    "nakamura:V.17[alpha=1,beta=1]":
        "3ee4236b63dfcfc55631b4481753296cc451213af7a4644597e86f8094b528cf",
    "nakamura:V.17[alpha=1,beta=-1]":
        "3ee4236b63dfcfc55631b4481753296cc451213af7a4644597e86f8094b528cf",
}

# (cohomology --json, cohomology --theories dbar,del,bc,a,dr)
COHOMOLOGY = {
    "torus:1": (
        "bc3d7e3ecffbaa776c2e2f3f043c99ac57be37ecb2194acc8e89913afcb50752",
        "28a055c817fee082cc38bd3c9a72df2048f5992b2c9574dcdf1386698f20bd8a"),
    "torus:2": (
        "9d01acdf46af2228d08df88bc09e3ff22e3d74cd9bbea3bfbc7e847789519eac",
        "9d4a8f40c2014accfad137c4f28d0872bf5e112cb5b671161965bba37edccd9e"),
    "torus:3": (
        "c6bdf2e167edd48eb74e811ebae177a1b9797422a0cb9c2ff6f53f3a5db1495a",
        "8811aa59ac0e8a2d7e905de20de7885772ef6ff43ecdf816a7b647a143ea7a80"),
    "iwasawa": (
        "b3e66069e7648b6434bcfa0fe26ff2d96fd6f6aabb7327ea3c3442f4eb8d29fc",
        "10271aff9361daffc0b4ee1e1b6f9655d3fe988dda6b4c73054f898070f80a56"),
    "example1:invariant": (
        "1c4c95f3d3b0271d7bb1ba30abfe24cc54780072e4ddfd8f98991c1fcc07be21",
        "14a38f15063f65bff842747bf790d309c514e03592435d649f3f378c90b0a4bc"),
    "ce:u=0,v=1": (
        "ac07e0cbae6330a2394ccc128c01b0affe86c854e3ad75f2ee83bb1736f43fc5",
        "09cb4d3681abb632b8177e382a4d2d6a1fd974c5247938bae23507f666c486fb"),
    "ce:u=1,v=1": (
        "90787517bd742461f450eb9f251537f707973314d9c765f61568a12d8d8064dd",
        "be988a81ee658b06a43a6ab5e90fcd7a599b8f9d37617b490952f0bbfa489788"),
    "ce:u=1,v=2": (
        "0b1ff68fa41c9dc9e09af46a89e615bc29baf15899abc565410422be493f81a9",
        "5bf3db6fb48a94a3da0be2d645f83547c2efeb0c547ffbe2024a571f1ae91ca0"),
    "nakamura:III.2": (
        "b3e66069e7648b6434bcfa0fe26ff2d96fd6f6aabb7327ea3c3442f4eb8d29fc",
        "10271aff9361daffc0b4ee1e1b6f9655d3fe988dda6b4c73054f898070f80a56"),
    "nakamura:III.3": (
        "8be1b9a5a90adeea0d5a21c4f4b4e1469484cde95317425773e9954c85536ad2",
        "ca686702571c6ca8a0550bb622184bdb150ec16cef85240d0f9a3c3ed027c9ed"),
    "nakamura:IV.2": (
        "406f8a04f9fed811613c1d07f6c7b97db04bc5807f5ed3c7678d28b95370b433",
        "e60b703575a35a5227e2e5b641a3a0bb4ff33bd06272d7ac64de518cf5bab28a"),
    "nakamura:IV.3": (
        "2ee80f7201211d82dbeb3d2a69e7b3ae00e020f5d8fd3f15bb1067068c80a093",
        "d5dd53f25a0f36e6404bd68c164bef94b5c211e3cc2fc145c1f076c88fd274a6"),
    "nakamura:IV.4": (
        "6412432eeed1578ad7f73193eb0520740c76c08a74eb3e5590626e65217d7f29",
        "6b3979944c5d122bb570f202897ec919ed4eeb01f3c7b2cf70fce46cb6c90d35"),
    "nakamura:IV.6": (
        "57c4681439198aacf72a555a251704856b67a2aa68a2994a8eb0714a3a31c369",
        "39fb14fb17bdee70305f03a3bccc4a888b7baa4e44ca0eb365a5c49def491737"),
    "nakamura:V.10": (
        "359dc2ca0de79da780378b6f1541a1ff3a8b3f06b3f741a42d0efff5cf1c5a80",
        "08395b22c1c357c67d728cf55408a489852d20cd5fcc0acad7dbf365d2ce0c39"),
    "nakamura:V.12": (
        "4429ad8f5419915be60818a41dcfe47a72fd66509c64666c2664c1b5915082ad",
        "5492efab74666028af47736209d54816d1340814aaabaa7f09bbbdd853029e3f"),
    "nakamura:V.15": (
        "add8eab729af0200f9596585022a6bf442dcceea2f8f249318344c608111fa11",
        "337cc74f85f695fef2362f5ba57b7ef1cf15f9c1a3780adcb1679b5d31a3aefb"),
    "nakamura:V.2": (
        "273ade0dd4b748dc0cc8fff795cffe7833f1fb3ca068cf30074b4974a4fe8052",
        "cfc25a551973616beb6095bcba3d24d7288bea086ae1b7e3b18ff47543f0d7f8"),
    "nakamura:V.3": (
        "6c7a85a34d389a270cc38b1196fb7d2f4311113d49f31d161e556bbde28a2931",
        "2ad9e3c7ef5be23394ffe25b8821ccbd7178ee365a3c7a745ae3439f214723a3"),
    "nakamura:V.4": (
        "ec438d2785ca0a2c47f20a2b078cc39740dae33dd3003be7ab4b81851e0eeb5f",
        "6a00d992b1c85e5d41b9bbdb45ff9256b80538256ad2cab0863b8e8befe8290a"),
    "nakamura:V.5": (
        "1e858d12072d4554d348c3107666fc1fc316ef5b64686320383ca26b836edb91",
        "3b116df62ec88689e230344e239f080d03a179c7f08597268e05b42caf157fca"),
    "nakamura:V.6": (
        "64accdf83251468d22ac2eba3c9e5da0e8c1ed5e406717785282bfcb6a45cb09",
        "9070eab7822301dce7c21eed7694ec351bedc2b2329cd053316e61bd36665e89"),
    "nakamura:V.7": (
        "cdeb5bfeca2516a1a72d420e303540cab23e7bf27f35dce7388fe83c2bfdbaec",
        "0d26cfb70f16baa324ab9a49641ed7dcdd2377c4eca4520699b13d56352c4e7c"),
    "nakamura:V.8": (
        "34ebe9485ee3891f6952ddb2816c9effd75ee499b2f5f16efed8eec711b89267",
        "be6f7c6f42fbe73b18b687a0705909917a16069be245a3829c85b60202c7a748"),
    "nakamura:V.9": (
        "3ada0f89a3ff0be2f03f949ec13235465485afd5d9f33cacf01828c261eefa38",
        "5e978296a089bc47f6cd24ce4ecd720934974e6397308a555dabd8e8b90afc8c"),
    "nakamura:V.17[alpha=1,beta=1]": (
        "5fe373cc7fb2f2d1bef68420d5e5389016be1553d707be50a1db4c3aed2ffdac",
        "e853436f981c73dbe4fdd4f6fdf400636b7adc93c7f35d1cce7d80f5a2fa6438"),
    "nakamura:V.17[alpha=1,beta=-1]": (
        "779a0eb3a2d93df59c455f836f6124892d713855ee7cca68604a0ecfbd9d5f1c",
        "57307267928c8c7a4cf580cede06b65d2632998acefdafbb95b7a4bb15964f83"),
}

OTHER = {
    ("verify-appendix",):
        "725478966efd34f7d2601d7f354e400952570f69defda96fa911c6621fad85c6",
    # the massey example of the README
    ("massey", "--model", "iwasawa", "--a", "p1*p2", "--b", "q1*q2",
     "--c", "q1*q2"):
        "fc57ac1a39fcb55610816f14e14ba0cea074ad539ef1cf80755e024c8bf3425c",
    ("ce", "--u", "1", "--v", "2", "--all-checks"):
        "22f92ca540f890de838f75f0b9a8e7ddd7fdffdda2da682dd945503921d75c5b",
}

# the primary Kodaira surface, its differential scaled by a parameter
KODAIRA = """algebra kodaira dim 2
holo p1 p2
param a = 2
d p2 = a*i*p1*q1
"""

KODAIRA_JSON = \
    "ba114281a7a1e560f2200a703d34ecad25346266ced8648d4264f3afa305f61a"


def _key(ident, params):
    return ident + ("[%s]" % ",".join("%s=%s" % kv
                                      for kv in sorted(params.items()))
                    if params else "")


def _model_argv(ident, params):
    argv = ["--model", ident]
    for kv in sorted((params or {}).items()):
        argv += ["--param", "%s=%s" % kv]
    return argv


def _formality_runs():
    for ident, params in catalog.default_instances():
        yield _key(ident, params), (["formality", "--notion", "all"]
                                    + _model_argv(ident, params))


def _digest(argv, monkeypatch):
    monkeypatch.delenv("HERMFORM_ASCII", raising=False)
    out = io.StringIO()
    code = run(list(argv), out=out, err=io.StringIO())
    text = "%d\n%s" % (code, out.getvalue())
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_default_instance_has_a_formality_digest():
    assert [key for key, _ in _formality_runs()] == list(FORMALITY)


def test_every_default_instance_has_cohomology_digests():
    assert [_key(*instance) for instance in catalog.default_instances()] \
        == list(COHOMOLOGY)


@pytest.mark.parametrize("key,argv", list(_formality_runs()),
                         ids=[key for key, _ in _formality_runs()])
def test_formality_output_is_golden(key, argv, monkeypatch):
    assert _digest(argv, monkeypatch) == FORMALITY[key]


@pytest.mark.parametrize("argv", list(OTHER), ids=[a[0] for a in OTHER])
def test_cli_output_is_golden(argv, monkeypatch):
    assert _digest(argv, monkeypatch) == OTHER[argv]


@pytest.mark.parametrize("ident,params", catalog.default_instances(),
                         ids=[_key(*i) for i in catalog.default_instances()])
def test_cohomology_output_is_golden(ident, params, monkeypatch):
    model = _model_argv(ident, params)
    assert (_digest(["cohomology", "--json"] + model, monkeypatch),
            _digest(["cohomology", "--theories", "dbar,del,bc,a,dr"] + model,
                    monkeypatch)) == COHOMOLOGY[_key(ident, params)]


def test_dsl_file_cohomology_is_golden(tmp_path, monkeypatch):
    path = tmp_path / "kodaira.hf"
    path.write_text(KODAIRA, encoding="utf-8")
    assert _digest(["cohomology", "--json", "--file", str(path)],
                   monkeypatch) == KODAIRA_JSON
