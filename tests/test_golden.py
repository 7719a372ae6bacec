"""Golden bytes: the CLI's outputs may not change by one byte.

Each digest is SHA-256 over the sorted names of the files one command
wrote, each name followed by a NUL byte and the file's bytes (the same
digest as ``perfbench/expected.json`` uses for ``reproduce``).  The
values were recorded before the long-run dispatch moved into
``chain.long_run``; a refactor that keeps them keeps every output.
Each file is also pinned on its own, by the same digest over a set of
one file, so a change that moves an output on purpose shows which files
moved and which did not.  The console lines are pinned too: SHA-256 of
what each run prints without ``--quiet``, with its output directory
replaced by ``<out>``.
"""

import hashlib

import pytest

from netsel.cli import EXIT_OK, main

pytestmark = pytest.mark.usefixtures("isolated_cwd")

README_CONFIG = """\
[network]
capacity = 100
arrival = 30
target_share = 0.68

[population]
n = 10
anchored_primary = 1
anchored_secondary = 1

[rule]
type = fermi
beta_ratio = 1.0

[simulation]
seed = 9
steps = 20000
replicas = 2
initial_state = 5
trajectory_decimation = 500

[replicator]
initial_share = 0.2

[sweep]
variable = lambda
values = 30, 35
"""

UNANCHORED = README_CONFIG.replace("anchored_primary = 1", "anchored_primary = 0").replace(
    "anchored_secondary = 1", "anchored_secondary = 0"
)
PROPORTIONAL = README_CONFIG.replace("type = fermi\nbeta_ratio = 1.0", "type = proportional")
# The start is already settled, so integrate returns its one-sample early exit.
AT_REST = README_CONFIG.replace("initial_share = 0.2", "initial_share = 0.68")

# name -> (command, config text, {file written: its digest}, digest of them all)
RUNS = {
    "equilibrium": (
        "equilibrium",
        README_CONFIG,
        {
            "equilibrium.csv": "af00a46e89b5af6b5f9e80e03d570ec42415fa5c09212332af463529a64f30be",
            "equilibrium.meta.json": "ebd4d898364c5baab212c59b0972fa7592d4f62c0f0ce3ccfd6f412f79ba0b05",
        },
        "9bb03907459d1fdda302ac78b3d21f540841e75afaf965ec7e4cc54e9501a681",
    ),
    "stationary_anchored_fermi": (
        "stationary",
        README_CONFIG,
        {
            "stationary.csv": "2c79c3e2af9cd5cb1926345f6d60c5c2a1ae678af4cb0d7f7f7abbe244a0a2d6",
            "stationary.meta.json": "ca1d6f6d687f4ecf9a0656dabb0c9d6c894fea8bc06f5d5289e7778a4d4b88cd",
        },
        "066b8b4bc917cda263681ccf25eee859871d28bfe71a837a189df049d5a2c3e3",
    ),
    "stationary_unanchored_fermi": (
        "stationary",
        UNANCHORED,
        {
            "absorption.csv": "9f8051d68473a4ba3d16f69c125343abee82aa718d5400b53a883daf5d3f22a8",
            "absorption.meta.json": "4c432ac98627445670624c2b0ed189ab43d3f120108baa7c3bc819a7261a8cc1",
        },
        "85810f50d4545f141338a62fbe8e6a8411e8f72ee03a1f57fe51307d27436155",
    ),
    "stationary_proportional": (
        "stationary",
        PROPORTIONAL,
        {
            "stationary.csv": "187ba933a102025baa3c0497c423c216f5dc11f9f6accbbf5938bbbd39f4594a",
            "stationary.meta.json": "b12d8cb0e20014064a2986fb17477366634ea2cafe74e239466c63d01c9d6fb8",
        },
        "21eff333dc269337be839cbf58e143393bccc18804016816bf3180446794d770",
    ),
    "sweep": (
        "sweep",
        README_CONFIG,
        {
            "sweep.csv": "13955cf96aea22da5ffdf5acd898cd85ffa1969952749a29a6cb750f1c820c0b",
            "sweep.meta.json": "074bdb97df799bc35c4ae89e47afb5e8ee87d3ddef64d053dcaa5f7f63486716",
        },
        "96af50550bf31ced9cff483ffbd01b72c2ae30d3dd5a103ea2606d2ae7a38915",
    ),
    "simulate": (
        "simulate",
        README_CONFIG,
        {
            "histogram.csv": "d3e2f0d0f51b161f755aa04d554891530da1261289b6d1feb81d0c27c9e22c9a",
            "histogram.meta.json": "cfb595a8648333880e28a11083fcb32d3da3ef9d26bee35f7f4c6dbf0099303c",
            "trajectory.csv": "4813be8e99a1e9a7fdb267c625a053e8586696084710485d7989dbe788a3b011",
            "trajectory.meta.json": "e0785bbade9989fdb8dff623899938ada984ff844b3cb6341d8f60437517244c",
        },
        "05bf93f10b2b57fda0ad4dba2e4d55a22e102b7c4d663f57ed18eec5dd43b7fa",
    ),
    "replicator": (
        "replicator",
        README_CONFIG,
        {
            "replicator.csv": "cf71437302b3c937bb3f1a080abd01f3a2cac8472486be1a0818d20b9e93bdc8",
            "replicator.meta.json": "8e12dae67fc761478a113c0b06d8fec9bb9f209738db6d77624545a2081b4135",
        },
        "d2e792523418237c39d1346df1ff6773135492dc0ea555902e3202b3765940bc",
    ),
    "replicator_at_rest": (
        "replicator",
        AT_REST,
        {
            "replicator.csv": "4943d94f25b83a74cdf448ff8a058372fb3e4b1ae851e9a6f405b351d7af59a2",
            "replicator.meta.json": "da5b23c6ffc65f6188142ffc9070f808e913134b595dd9d2f2334e35c467937f",
        },
        "3f8e9dd4f288ddb0ec420515736bf7fd6e98b4d8ec9b8eb45ffd514a2b775a18",
    ),
}

REPRODUCE_ALL_FILES = {
    "fig1a.csv": "f37f97a75d7c33216aca3d226f03050f75adece9e26a77bd0652b8a61ff3c6b6",
    "fig1a.meta.json": "a2a28e642ff3f04b3b24ec632f8f81e9424f5eb4d00aa7c1855f32dfe2726ea3",
    "fig1b.csv": "3eafa58211811c2c31058c954d2ead1adf2ba0ed7b5b98a6d7a41db0018f6d6b",
    "fig1b.meta.json": "3bc8ceb1dbe16b35ff367f1f86d8b4564e281ba5301f8fc02886d0f5ceb27101",
    "fig2a_absorption.csv": "0adc987ee21d8fbcc8e64f82c662f1dadf2fbd499f563f00899a239796c436d3",
    "fig2a_absorption.meta.json": "1f3666398218881314905062f13d957fde8361d829fd4908731d4ff2b1cbc5ba",
    "fig2a_distribution.csv": "28f4a44091b41049f233b81876c86dcfa0838e7fb0ce1987c5aac960e791cb88",
    "fig2a_distribution.meta.json": "991cf8fe12b125c02fdef13349f1b2f84fa285e7489b96f346a16e4b3b3af94c",
    "fig2b.csv": "16af600e6a87f737e5e789a1ca8855c65830172716854ce7227355d7f4b87a74",
    "fig2b.meta.json": "3075d0b636a9ea85fba7b3dcdd45b343df86d836c2c9d213686b3907b569477c",
    "fig3a_distributions.csv": "340f0136abc4b9b976dce6e50f2fe8e0391107d78d2469c625191759bb637b43",
    "fig3a_distributions.meta.json": "14a53d44fad42accd2870cccf0d962cced51110d03ef5a26a03cdb0afbf1388c",
    "fig3a_summary.csv": "079cd0789f6b08d182b5e5ca50c79bec1927cb44ba1de0303f0b657906730df7",
    "fig3a_summary.meta.json": "4f908ee5c34e6d0932176e9ef644f952d821108d1b5055e14ee3c038e8e6aebb",
    "fig3b_distributions.csv": "de1371a17b688320034d9df70a49e5d674b157513482122e92f1ffd65df4a5d6",
    "fig3b_distributions.meta.json": "1cda8abb8f595f792c9038b429bfbcfc45f4f695db829ede225980be9a631a9c",
    "fig3b_summary.csv": "d0ff2898ca5b0be0a206c702ddb7da7482fd6ec336ed0abdbd47c8cefdd8b8fa",
    "fig3b_summary.meta.json": "78fa5abbd4ab1c072049561b8c9f0001ec4f10ec8ee8fd37fc69d6360a902240",
}
REPRODUCE_ALL_SHA256 = "ca02eb470eab47c1968149c5567836b2c7e1ebcf42641595570df95de9d9f849"
# the six .gp files of ``reproduce --figure all --gnuplot``
GNUPLOT_STUBS_SHA256 = "34364d0540991af898ecb74237c7ee3b57e582cd0e1e505709be81f1b2038ad4"

# RUNS name, or a reproduce form -> digest of its stdout
STDOUT_SHA256 = {
    "equilibrium": "a1a95bac412c9fc3185a7d0c77427e0edd32e29e00720a8b9f7b852c68521815",
    "replicator": "3efc712e15832fdc606c0b651748c8d590777eb7285cf0e0f890dd93b0c5c04d",
    "replicator_at_rest": "091ce7053300d093541b660d2504cdf4da2582a66d41e04d3ae16cd7360a6bb5",
    "simulate": "1b34c3360a2a56d05b73e5decfa409479da3988269980a882d5896a76d173267",
    "stationary_anchored_fermi": "41f892eb6c91fb075946f728b9d0036720f81819c4a2f5dd294c55a0f705e5f1",
    "stationary_proportional": "9b3afc4af2de4dd73838576e0370515416b89c1a120da4da8843646e4656b9c5",
    "stationary_unanchored_fermi": "154c02780c9c804fe6c77734ea764448d9e3c4efcbc2cca7f529677d22cb1b5d",
    "sweep": "d0631b73e898ccf26bada244cb74fce4ddea44dd34cc62951bd5df905583b85c",
    "reproduce": "bce526892241ad9a6aa302cb238f393addc241408af0695f622f202e7c96e1f6",
    "reproduce_gnuplot": "90e38d3be881cb27dde14acfed0fd66a0c2581e1255029056897b0249e127b51",
}


def digest(paths):
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stdout_digest(capsys, out):
    text = capsys.readouterr().out.replace(str(out), "<out>")
    return hashlib.sha256(text.encode()).hexdigest()


def assert_pinned(out, files, sha):
    """Each file first, so a moved output names itself; then the whole set."""
    assert {path.name: digest([path]) for path in out.iterdir()} == files
    assert digest(out.iterdir()) == sha


def test_reproduce_all_bytes_are_pinned(tmp_path):
    out = tmp_path / "figs"
    assert main(["reproduce", "--figure", "all", "--out", str(out), "--quiet"]) == EXIT_OK
    assert_pinned(out, REPRODUCE_ALL_FILES, REPRODUCE_ALL_SHA256)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_bytes_are_pinned(tmp_path, name):
    command, text, files, sha = RUNS[name]
    config = tmp_path / "experiment.ini"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
    assert_pinned(out, files, sha)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_console_lines_are_pinned(tmp_path, capsys, name):
    command, text, _, _ = RUNS[name]
    config = tmp_path / "experiment.ini"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert stdout_digest(capsys, out) == STDOUT_SHA256[name]


@pytest.mark.parametrize("name, extra", [("reproduce", []), ("reproduce_gnuplot", ["--gnuplot"])])
def test_reproduce_console_lines_are_pinned(tmp_path, capsys, name, extra):
    out = tmp_path / "figs"
    assert main(["reproduce", "--figure", "all", *extra, "--out", str(out)]) == EXIT_OK
    assert stdout_digest(capsys, out) == STDOUT_SHA256[name]
    assert digest(out.glob("*.gp")) == (GNUPLOT_STUBS_SHA256 if extra else digest([]))
