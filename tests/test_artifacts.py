"""Every artifact the command line writes, pinned by digest.

Each row runs one command line in a directory holding the inputs below and
pins the sha256 of its exit code, stdout, stderr and ``--output`` file.  A
change that claims byte-identical artifacts moves no pin; an intended
artifact change moves exactly the pins it names.  The floats in the JSON
artifacts come from the platform's ``log``, so a pin that moves on another
libm alone is a finding about run-to-run determinism, not about the change.
"""

import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from weakapprox.cli import main
from weakapprox.cf import PartialQuotients
from weakapprox.construct import construct_thm1, construct_thm3

#: The step pair of the README's lemma1 CSV command.
U_CSV = "t,value_num,value_den\n1,1,1\n4,3,10\n10,1,10\n"
V_CSV = "t,value_num,value_den\n2,1,2\n6,1,5\n15,1,20\n"
#: ``measure --prefix "[0;2,2,2]" --kind upsilon``, the README's plot input.
UPS_CSV = "t,value_num,value_den\n1,5,12\n2,1,3\n"
#: A scaled thm3-like pair whose profile walk passes minima outside a small box.
WIDE_THETA, WIDE_ETA = "[0;3,7,156,535867,986372083990945]", "[0;2,3,22,3435,1840703167]"
#: Bounded quotients 1..4 at depth 400: many moderate rows, as in the benchmark's seeded workload.
BOUNDED_TAIL = tuple(1 + (k * k + k // 3) % 4 for k in range(400))

PINS = [
    # The README's command lines.
    (["cf", "--prefix", "[0;2,2,2]"],
     "d69d03f389bc204173ae767ae1fb128fa175bbe4a8137fe956109f2b62d5e872"),
    (["construct", "--scheme", "thm1", "--gamma", "3/2", "--depth", "10"],
     "4ce3849dce972125ee72f219f3a6ea66dd6876ec1ca431e5279ecdad7f1a1e86"),
    (["construct", "--scheme", "thm3", "--gamma", "1", "--depth", "6", "--output", "pair.json"],
     "651b1f76ed3d32752756112ed350ceb12c89b0d21c3a0d50500a10f1fd909500"),
    (["measure", "--prefix", "[0;2,2,2]", "--kind", "upsilon", "--output", "ups.csv"],
     "a966331f0ecafbe8311cfc8deee840caffc6ac2b1575c939930b3ff8d3c16733"),
    (["exponents", "--theta", "[0;2,3,2,3,2,3,2,3]", "--eta", "[0;3,2,3,2,3,2,3,2]"],
     "b280bfa12b044bb9c629084056cc1ee4dfedb7f2d89f61d242f35825cee34adb"),
    (["lattice", "--theta", "theta.json", "--eta", "eta.json", "--d1", "2", "--d2", "3"],
     "3146338720d6e3f602f7fd6e25e5cb7942c2102e0ce55f03ea78fa7939c5e12a"),
    (["lemma1", "--seed", "0", "--pairs", "100"],
     "379f7a828bdf8391f09a0ddaf5f8853cc74f78437264a501d4820d3163ab1e91"),
    (["lemma1", "--u-csv", "u.csv", "--v-csv", "v.csv", "--u-end", "20", "--v-end", "20",
     "--margin", "0"],
     "209da4ea51bdf43460c4d10efa411687d284c44e773237a1b55e19c641091737"),
    (["verify", "--theorem", "T3", "--gamma", "1/1", "--depth", "12"],
     "7eeb9a1415ff58f6e375ed62c4c28db6a7b7f721c4a559d9c62209e51ca97c59"),
    (["plot", "--csv", "ups.csv", "--label", "upsilon", "--annotate", "2", "--output",
     "steps.svg"],
     "e4403a1cede29e89baedba810980947b77310629bf129a36bf69909e96b7b095"),
    # Each bound at the smoke depths (T2 at 14, where 5 of its 26 rounded roots are bracketed).
    (["verify", "--theorem", "T1", "--gamma", "3/2", "--depth", "8"],
     "56a1692dcbc52887d261cb47fed1dbe26b7de3310efb3516819fce5880959659"),
    (["verify", "--theorem", "T2", "--gamma", "13/10", "--depth", "14"],
     "367c22c16e05209396cdcc84d1b962ff2458be0eb62339b8d577e6698261235f"),
    # T2 where every rounded root is longer than its base (gamma - 1/gamma > 1).
    (["verify", "--theorem", "T2", "--gamma", "7/4", "--depth", "11"],
     "363cabaf2ae5a67fa62ec08dc25a6f3c417483430a291afed5130da4cadf472f"),
    # Exact roots of the full power: 10,000th roots at s < 2^65, and thm3's cube roots.
    (["verify", "--theorem", "T2", "--gamma", "1.3001", "--depth", "6"],
     "d0c21335708159f4b871786e48d0297200ac0f4ac4c126bd51a28829249bfed6"),
    (["verify", "--theorem", "T3", "--gamma", "4/3", "--depth", "10"],
     "834e6507275b37f05c77f7cc3c5721db6cb17d155dc959c5a381ba14bfe21d33"),
    (["verify", "--theorem", "T3", "--gamma", "1", "--depth", "8"],
     "061de3d012b8e969a25ca31f19f2489bda5ce28e3b70f6612a0bd525ea7f2970"),
    (["verify", "--theorem", "T4", "--gamma", "1", "--depth", "8"],
     "51be81c431f5da63ac9755deddb4f22479d7e9bb8a465bff5893f8e1cebc5b3e"),
    # The lattice profile scaled, at the cap and in a small box.
    (["lattice", "--theta", WIDE_THETA, "--eta", WIDE_ETA, "--d1", "2", "--d2", "3"],
     "11c307f6624647f4a52f12b3010fdead652e875d0eabef0d1fec57bc8c8dfe1e"),
    (["lattice", "--theta", WIDE_THETA, "--eta", WIDE_ETA, "--d1", "2", "--d2", "3",
     "--t-max", "3"],
     "282a6705324e8b9d2c2e78744b537491f0e0bb3f0724d3f87df71e57c7826cf6"),
    (["lattice", "--theta", "theta.json", "--eta", "eta.json", "--t-max", "1000000000"],
     "0c4f67c5e624252ab57327fd935af8c3ec2765fbad352281960ec862b96c8948"),
    # Both measure functions where the lowest terms need g_v > 1.
    (["measure", "--prefix", "theta.json", "--kind", "psi"],
     "e4337e7a9e2623047d159f0dc664f88eaf64811358b8118b7fc0b6af1583110a"),
    (["measure", "--prefix", "theta.json", "--kind", "upsilon"],
     "aa24023f397ff8ec6c57cf05d1eee56a7b3e0f3aba6f5602280e9d4d4202f9f4"),
    (["measure", "--prefix", "[0;2,2,2]", "--kind", "psi"],
     "aeb41a6170aea0d7c65fb34329fc4ea1d1e2eeaea7baffb560c61a0ace2a9b29"),
    (["cf", "--prefix", "eta.json"],
     "c6a4311aab3ac49ce4054ad56861a491646d5d69c20a155ccec964730afbc6b0"),
    (["plot", "--prefix", "[0;2,2,2,2,2,2]", "--title", "a<b"],
     "b0114e7dd965e98298cedd687be507c867a2b0190e37953f0c33134ea3d5b217"),
    (["plot", "--prefix", "eta.json", "--linear"],
     "77854bfb2b2193cb5dcb99c4acd1209a8dea65e1a299ba897170a44cb05ea71d"),
    (["exponents", "--theta", "theta.json", "--eta", "eta.json"],
     "2adb41e471b92c15b6f9dc5938ecb92d65156223a4790f51d758f833dc35275c"),
    (["exponents", "--theta", "theta.json", "--window", "1,4"],
     "ec9251ccd4c9d93cdff539e23c1c5f9f074a4783ced75e69c5edca72fd1272e2"),
    (["lemma1", "--seed", "0", "--pairs", "2", "--pieces", "600"],
     "69057279e68392d94242440439936075322ff82cb9583cf395f8c7a953baa0d2"),
    (["lemma1", "--u-csv", "u.csv", "--v-csv", "v.csv", "--u-end", "20", "--v-end", "20"],
     "299bc4209ffc40b4176ff7d3d0429f35ae0470d204d490544a35a8445556500f"),
    # Rows of 10^3 to 10^4 digits, where the logs and comparisons read heads.
    (["verify", "--theorem", "T4", "--gamma", "1", "--depth", "10"],
     "b3ea9a03d98ce1bd5edcd4b97e64d663d8530b86ccc2f81c3da624b26cab988b"),
    (["verify", "--theorem", "T4", "--gamma", "1", "--depth", "12"],
     "d87a1d9986f18d613802600a1886b370f2317e6050032a0ccd30536558a01936"),
    # Walk quotients of up to 288k bits and sample keys of up to 178k: the recursive division.
    (["verify", "--theorem", "T4", "--gamma", "1", "--depth", "14"],
     "4461ffe545ccef933f4f4288f24cd152eafc74edaaacdfe8936a2090f02ecad7"),
    (["lattice", "--theta", "theta10.json", "--eta", "eta10.json", "--d1", "2", "--d2", "3"],
     "e7ad51d4e7365fbf8517941cdf44c8220804705107dfaca519cd71facae1c9bc"),
    (["exponents", "--theta", "thm1.json"],
     "6b749ea0137262a1a322a4d4f1e75af0486c567688e96171492571647ecc1c62"),
    (["measure", "--prefix", "thm1.json", "--kind", "psi"],
     "ce98844e9489e4dfa91727f5e83cf5ec35a512e9ca96cdd150e6f745bd33fe38"),
    (["measure", "--prefix", "thm1.json", "--kind", "upsilon"],
     "aba30507804ff1166b9e00d73e39622fb8b3d37367c1b7057ecb5ef867773c9a"),
    (["cf", "--prefix", "bounded.json"],
     "61c6f416c09b1fd7e4d191a18f87f06fa444ed2530b601dae5c2a1d773f9a2a2"),
    (["measure", "--prefix", "bounded.json", "--kind", "upsilon"],
     "2518f5e4cf125c9166bedaf58ab6f24a5ea5015dd58edfec0997c16145644753"),
    (["exponents", "--theta", "bounded.json", "--eta", "thm1.json"],
     "cc9aded1a5d9e1df6e249786d8494927f2ef9c9032cca56a34ff94c77871a8ab"),
    (["plot", "--prefix", "bounded.json"],
     "664439edaa2986c59f39c50b18d80f67e5cc569d1ca923321387b9e538c7c078"),
    # cf at depth 1 (no distance table), and with a negative a0, a1 = 1 and a_N = 1.
    (["cf", "--prefix", "[3;7]"],
     "23c561926969c90dbe17f75d36997c520bc761601b761e3c235f56da11eb837c"),
    (["cf", "--prefix", "[-2;1,4,1]"],
     "60a1c812d64ca409065cf540a4566f9bf1d2839cbf2e5a951cdc9593cfe13f36"),
    # Usage errors and an inapplicable estimate.
    (["lattice", "--theta", "[0;3,7,156]", "--eta", "[0;2,3,22]", "--t-max", "1/0"],
     "b4935467565928ba9782303eabf6de4e23f3f1e69fc967052625ebe6cc364e8e"),
    (["exponents", "--theta", "[0;1,1]"],
     "c2c0202aceb670571af7e3fadbb255c1d4102fc1610fdac18d858b7d9c62927a"),
]


@pytest.fixture(scope="module")
def input_files():
    """Name and text of each file the pinned command lines read."""
    prefixes = dict(zip(("theta.json", "eta.json"), construct_thm3(1, 6)))
    prefixes.update(zip(("theta10.json", "eta10.json"), construct_thm3(1, 10)))
    prefixes["thm1.json"] = construct_thm1(Fraction(3, 2), 17)
    prefixes["bounded.json"] = PartialQuotients(0, BOUNDED_TAIL)
    files = {name: pq.to_json() + "\n" for name, pq in prefixes.items()}
    files.update({"u.csv": U_CSV, "v.csv": V_CSV, "ups.csv": UPS_CSV})
    return files


@pytest.fixture
def inputs(input_files, tmp_path, monkeypatch):
    """A fresh working directory holding the input files."""
    for name, text in input_files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def artifact_digest(argv: list[str], capsys) -> str:
    """sha256 over the exit code, stdout, stderr and the ``--output`` file,
    each prefixed by its length; argparse's exit counts as an exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects an option
        code = exc.code
    captured = capsys.readouterr()
    written = Path(argv[argv.index("--output") + 1]).read_bytes() if "--output" in argv else b""
    h = hashlib.sha256()
    for part in (str(code).encode(), captured.out.encode(), captured.err.encode(), written):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


@pytest.mark.parametrize("argv, digest", PINS, ids=[" ".join(a)[:60] for a, _ in PINS])
def test_artifact_is_pinned(argv, digest, inputs, capsys):
    assert artifact_digest(argv, capsys) == digest
