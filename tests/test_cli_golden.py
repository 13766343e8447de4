"""Byte-for-byte pins on what every CLI command writes.

One in-process run of every subcommand on a `synth --count 300 --seed 1`
corpus: each command's exit code, the sha256 of its stdout and its stderr,
and the sha256 of every file the run leaves behind (artifacts, manifests,
dedup's stats file and the reserved repair split). The run works in its
own directory with relative paths, so the paths a manifest records do not
depend on where the checkout is.
"""

import hashlib

from formulakit.cli import main
from formulakit.jsonl import write_jsonl_atomic


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


EMPTY = digest(b"")

REPAIR = ["--index", "index.json", "--benchmark", "repair-bench.jsonl", "-k", "5"]
COMPLETE = ["--index", "index.json", "--benchmark", "complete-train.jsonl", "-k", "5"]
EVAL_REPAIR = ["--benchmark", "repair-bench.jsonl", "--predictions", "preds.jsonl",
               "-k", "1", "-k", "5"]
EVAL_COMPLETE = ["--benchmark", "complete-train.jsonl",
                 "--predictions", "complete-preds.jsonl"]
RETRIEVAL = ["--pairs", "pairs.jsonl", "--embeddings", "embeddings.jsonl"]

# In order: a command reads what the ones before it wrote.
COMMANDS = {
    "synth -o": ["synth", "--count", "300", "--seed", "1", "-o", "corpus.jsonl"],
    "synth": ["synth", "--count", "300", "--seed", "1"],
    "synth -o, no --seed": ["synth", "--count", "300", "-o", "seedless.jsonl"],
    "dedup -o": ["dedup", "--input", "corpus.jsonl", "-o", "dedup.jsonl"],
    "dedup": ["dedup", "--input", "corpus.jsonl"],
    "stats -o": ["stats", "--input", "corpus.jsonl", "-o", "stats.json"],
    "stats": ["stats", "--input", "corpus.jsonl"],
    "lex -o": ["lex", "--input", "dedup.jsonl", "-o", "lex.jsonl"],
    "lex": ["lex", "--input", "dedup.jsonl"],
    "sketch -o": ["sketch", "--input", "dedup.jsonl", "-o", "sketch.jsonl"],
    "sketch": ["sketch", "--input", "dedup.jsonl"],
    "check -o": ["check", "--input", "dedup.jsonl", "-o", "check.jsonl"],
    "check": ["check", "--input", "dedup.jsonl"],
    "train-tokenizer -o": ["train-tokenizer", "--input", "dedup.jsonl", "--budget", "600",
                           "-o", "tokenizer.json"],
    "tokenize -o": ["tokenize", "--input", "dedup.jsonl", "--model", "tokenizer.json",
                    "-o", "tokens.jsonl"],
    "tokenize": ["tokenize", "--input", "dedup.jsonl", "--model", "tokenizer.json"],
    "tokenize --pretokenize-only": ["tokenize", "--input", "dedup.jsonl",
                                    "--model", "tokenizer.json", "--pretokenize-only"],
    "gen-pretrain -o": ["gen-pretrain", "--input", "dedup.jsonl", "--seed", "7",
                        "-o", "pretrain.jsonl"],
    "gen-pretrain": ["gen-pretrain", "--input", "dedup.jsonl", "--seed", "7"],
    "gen-pretrain --workers 2": ["gen-pretrain", "--input", "dedup.jsonl", "--seed", "7",
                                 "--workers", "2", "-o", "pretrain-2.jsonl"],
    "gen-finetune-repair -o": ["gen-finetune-repair", "--input", "dedup.jsonl", "--seed", "7",
                               "--reserve", "20", "--reserve-output", "repair-bench.jsonl",
                               "-o", "repair-train.jsonl"],
    "gen-finetune-complete -o": ["gen-finetune-complete", "--input", "dedup.jsonl",
                                 "--model", "tokenizer.json", "--seed", "7",
                                 "-o", "complete-train.jsonl"],
    "baseline build -o": ["baseline", "build", "--input", "dedup.jsonl", "-o", "index.json"],
    "baseline repair -o": ["baseline", "repair", *REPAIR, "-o", "preds.jsonl"],
    "baseline repair --buggy": ["baseline", "repair", "--index", "index.json",
                                "--buggy", "=SUM(A1:A10"],
    "baseline complete -o": ["baseline", "complete", *COMPLETE, "-o", "complete-preds.jsonl"],
    "baseline complete --prefix": ["baseline", "complete", "--index", "index.json",
                                   "--prefix", "=SUM("],
    "eval-repair -o": ["eval-repair", *EVAL_REPAIR, "-o", "report.json"],
    "eval-repair": ["eval-repair", *EVAL_REPAIR],
    "eval-complete -o": ["eval-complete", *EVAL_COMPLETE, "-o", "complete-report.json"],
    "eval-complete": ["eval-complete", *EVAL_COMPLETE],
    "eval-retrieval -o": ["eval-retrieval", *RETRIEVAL, "-o", "retrieval.json"],
    "eval-retrieval": ["eval-retrieval", *RETRIEVAL],
}

PAIRS = [
    {"formula_a": "=SUM(A1:A10)", "formula_b": "=SUM(A1:A9)", "target_similarity": 0.9},
    {"formula_a": "=SUM(A1:A10)", "formula_b": "=MAX(B1:B2)", "target_similarity": 0.4},
    {"formula_a": "=A1+B1", "formula_b": "=MAX(B1:B2)", "target_similarity": 0.1},
]
EMBEDDINGS = [
    {"formula": "=SUM(A1:A10)", "vector": [1.0, 0.0, 0.5]},
    {"formula": "=SUM(A1:A9)", "vector": [0.9, 0.1, 0.5]},
    {"formula": "=MAX(B1:B2)", "vector": [0.2, 1.0, 0.0]},
    {"formula": "=A1+B1", "vector": [0.0, 0.3, 1.0]},
]

# command -> (sha256 of stdout, sha256 of stderr)
STREAMS = {
    "synth -o": (EMPTY, EMPTY),
    "synth": ("2970887c3953f0e7d88484ef4aea2970ec67bff96eca1bb614923123f46698e9", EMPTY),
    "synth -o, no --seed": (EMPTY, EMPTY),
    "dedup -o": (EMPTY, EMPTY),
    "dedup": (
        "e71ccf871a31a00f08a30de9f9729584a562d3cd554ae53c77f2a6e0bee383c6",
        "4f128956931e46c3af58eea640e93f714366c40cd889a712f230c092d9225dbd"),
    "stats -o": (EMPTY, EMPTY),
    "stats": ("d16efd24366c7a675a7c78dcf6a992dc1a1c6bedb0a72a2123edcb730c46fba5", EMPTY),
    "lex -o": (EMPTY, EMPTY),
    "lex": ("d58362ce0c6a0ba6a7ccd66bfa758ee50974b4a390391efee397eb918695c035", EMPTY),
    "sketch -o": (EMPTY, EMPTY),
    "sketch": ("8528191efe2859b97bee45070029bd471ef120efbc6831d713fc1711d304c7d5", EMPTY),
    "check -o": (EMPTY, EMPTY),
    "check": ("41e7412876f529cd01b10b7f1e48605b71ec4855ee33159ef3c5aafd339b1816", EMPTY),
    "train-tokenizer -o": (
        EMPTY,
        "1fc86e705d84baed3c982d597a062319a8b50b07d72fa9c520307596172feda1"),
    "tokenize -o": (EMPTY, EMPTY),
    "tokenize": ("0109223aeee6ed5b1732729f4ab05e7c627bc24b221f331c4dd4581813e9a144", EMPTY),
    "tokenize --pretokenize-only": (
        "c603c9331966c928eb50873961552560c73686546591dfee2eca5561c7594652",
        EMPTY),
    "gen-pretrain -o": (EMPTY, "40ddf5552e51fc1fa56dbc04c4b5d793571f67ae72b0a7792d98e4ba00e6809a"),
    "gen-pretrain": (
        "3cac75edc0f84691e1c6af95d69e9296ba44c612f9a9c782b1e281c93bcc5214",
        "40ddf5552e51fc1fa56dbc04c4b5d793571f67ae72b0a7792d98e4ba00e6809a"),
    "gen-pretrain --workers 2": (
        EMPTY,
        "40ddf5552e51fc1fa56dbc04c4b5d793571f67ae72b0a7792d98e4ba00e6809a"),
    "gen-finetune-repair -o": (
        EMPTY,
        "18e20daaf902e7f1367d31bae48e425f96f6bea542da27bbbb3235a241b2f19f"),
    "gen-finetune-complete -o": (
        EMPTY,
        "b29d124c59e27658723100c25a1444b833b565634fe8306e1a317f44bf92bf8e"),
    "baseline build -o": (
        EMPTY,
        "3996d61d80fe1b8c907fe526c9d3190cc7f39a62c4a6711678ee4ff9e6949a2c"),
    "baseline repair -o": (EMPTY, EMPTY),
    "baseline repair --buggy": (
        "6876ffee27fbfa2e910df052b4b3046ca605576aa5f44c5f2e5f5f4b4d10d350",
        EMPTY),
    "baseline complete -o": (EMPTY, EMPTY),
    "baseline complete --prefix": (
        "713f823fa27fafcfc80b4d08e1f4423fdbe3d5dd185c4a4f60e25e62b675c7ec",
        EMPTY),
    "eval-repair -o": (EMPTY, "600ed82c8c10191b98c960c7f75eccb7bbcebce3e551c3db59796d6aa8e843c6"),
    "eval-repair": (
        "55436969037567f28b4112dd55b0018610c1217f64958dfc11974d0ba5a8b9e7",
        "600ed82c8c10191b98c960c7f75eccb7bbcebce3e551c3db59796d6aa8e843c6"),
    "eval-complete -o": (
        EMPTY,
        "ffba5234faefc57405c909abece56287697be86bfd35fa19b8005eacafc819c3"),
    "eval-complete": (
        "d145a89cd901cf3ed27279fc36d8e3f2ad2b23a0378ae5041821fc389c19acb0",
        "ffba5234faefc57405c909abece56287697be86bfd35fa19b8005eacafc819c3"),
    "eval-retrieval -o": (
        EMPTY,
        "62d5881832f051c8a02e38df5281c177671bef5ff5146419949ef0156ebd07ab"),
    "eval-retrieval": (
        "f23b69031dc756ef8ea9e9f9260d0ddb1981454b98ca9b608b56cbe4ffb294da",
        "62d5881832f051c8a02e38df5281c177671bef5ff5146419949ef0156ebd07ab"),
}

# file left in the run's directory -> sha256
FILES = {
    "check.jsonl": "41e7412876f529cd01b10b7f1e48605b71ec4855ee33159ef3c5aafd339b1816",
    "check.jsonl.manifest.json":
        "4606fe28b5ec2074bee7df0253a6df5949775235f94d5398114c717087402e10",
    "complete-preds.jsonl": "293b0d20b79ad749a9ebf6ca20de2af0e5e7142b63f4f133c758f5732b68f863",
    "complete-preds.jsonl.manifest.json":
        "7e096ccb21c6c54d7146a7dc219c508359d158453c2376d09ec2467dd62a8b59",
    "complete-report.json": "d145a89cd901cf3ed27279fc36d8e3f2ad2b23a0378ae5041821fc389c19acb0",
    "complete-report.json.manifest.json":
        "a8a605bbc456249d586d30e7c13a9d9854b42292703e4c1c6aaadd88347e186d",
    "complete-train.jsonl": "063b934c9673b258bef8d4fc990e653f77029678cdb07a241a50481cb3639c07",
    "complete-train.jsonl.manifest.json":
        "3ef8d53db8796e655c4da680f438493e6baabfe97ca3a7b6fc2b289c82a49585",
    "corpus.jsonl": "2970887c3953f0e7d88484ef4aea2970ec67bff96eca1bb614923123f46698e9",
    "corpus.jsonl.manifest.json":
        "f50ffa4cfe7c2b6909e83db918e12916611cf74b571ecd9320efc34f93ae8331",
    "dedup.jsonl": "e71ccf871a31a00f08a30de9f9729584a562d3cd554ae53c77f2a6e0bee383c6",
    "dedup.jsonl.manifest.json":
        "84821a086e85a650fdb8f198c09b64f0b258739ba989a174b98017c678f3e39c",
    "dedup.jsonl.stats.json": "49518451b7ffbdd1b9a1c26abfbd36d828d723e189c639721189304713b7a350",
    "embeddings.jsonl": "6991e9620dfb78c0818640a1159ce216be34f3b99907de5ffc4414935cb2367a",
    "index.json": "f411f74e49da57e05d8d735aafec4a7ea1071c22c8ea5961edb67bb81d0c1c92",
    "index.json.manifest.json": "72837c8323a070b1e0fe853137af64ae3138af63e3040799ac6b8f6d0fc501f7",
    "lex.jsonl": "d58362ce0c6a0ba6a7ccd66bfa758ee50974b4a390391efee397eb918695c035",
    "lex.jsonl.manifest.json": "ee585b736a9b705153f7979b7381974d3ccf6139610d79c5d3de0ebc3afe996b",
    "pairs.jsonl": "02d8d2864ad8895e2c372cfd14b56e8e56cd3a6c7fa9e9ebd797d940b33e9098",
    "preds.jsonl": "1be17c5e12ef6f9a9de2432af6d5f3fc0711384431cdc805095841427db61a1e",
    "preds.jsonl.manifest.json":
        "2721ca098961a0ca28078de8ea0d055322401bad0e8b280df5fe689bc5523487",
    "pretrain-2.jsonl": "3cac75edc0f84691e1c6af95d69e9296ba44c612f9a9c782b1e281c93bcc5214",
    "pretrain-2.jsonl.manifest.json":
        "8d52b551e38f91b42039008cb60a992b4b67801d9a31767104de78f038259ae4",
    "pretrain.jsonl": "3cac75edc0f84691e1c6af95d69e9296ba44c612f9a9c782b1e281c93bcc5214",
    "pretrain.jsonl.manifest.json":
        "9b57c3fd04f1cca2738e4bfcde1eb91098d9aaf68408a317c09b59ce1d5753b8",
    "repair-bench.jsonl": "dace7f8c5a04d52aa9fd9b2f3dce05cd89cc8795337f038803e3a7def4f7d05f",
    "repair-train.jsonl": "61b28d9b5ba3d20ea62c7d0a5ad7e3dca6b597c51f7ff85ef734d034c1bea990",
    "repair-train.jsonl.manifest.json":
        "386e6def72cc1caa6afb4d3cd3ccd9b644eb976bba72ccb870bd262582f580ad",
    "report.json": "55436969037567f28b4112dd55b0018610c1217f64958dfc11974d0ba5a8b9e7",
    "report.json.manifest.json":
        "6bb82bc598b293c459363b15465233063734fc93d896c8ca68bc760339d13447",
    "retrieval.json": "f23b69031dc756ef8ea9e9f9260d0ddb1981454b98ca9b608b56cbe4ffb294da",
    "retrieval.json.manifest.json":
        "dcd31ea3c10734e53be2626890669a40a468c4056ff98969c164222ce526d33a",
    "seedless.jsonl": "b995bc042497a3b51496099f2a5f580805ed61d422b8d4ba4d7f4715889fef28",
    "seedless.jsonl.manifest.json":
        "b182d200ca64ab6cfee93b8a52e7d7f8476830c16bbcf8dbe2bb536ce3e53eea",
    "sketch.jsonl": "8528191efe2859b97bee45070029bd471ef120efbc6831d713fc1711d304c7d5",
    "sketch.jsonl.manifest.json":
        "a5b7a9ef890d2c13b703ff8373969f1369a852ee0936a3c91aa9cccb6547c84e",
    "stats.json": "d16efd24366c7a675a7c78dcf6a992dc1a1c6bedb0a72a2123edcb730c46fba5",
    "stats.json.manifest.json": "481dd4ccc47aa76537a8fe3cfb7c0932ded3f7c43db2258557e3281fd8895eb2",
    "tokenizer.json": "7352cd983812eb03448dbc5d6b2f2e7e1991a157da6b6c5fbe0c120d85437f9a",
    "tokenizer.json.manifest.json":
        "635bdecdc580de8b3bfa99b9a3da73127b2a8b71007842ec87378cc9504617e4",
    "tokens.jsonl": "0109223aeee6ed5b1732729f4ab05e7c627bc24b221f331c4dd4581813e9a144",
    "tokens.jsonl.manifest.json":
        "8dc15761e9bf203c005c3b11ea960a7368114a8570118bb09d1b0ee474a8c9d5",
}


def test_every_command_writes_the_pinned_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_jsonl_atomic("pairs.jsonl", PAIRS)
    write_jsonl_atomic("embeddings.jsonl", EMBEDDINGS)
    codes, streams = {}, {}
    for name, argv in COMMANDS.items():
        codes[name] = main(argv)
        out, err = capsys.readouterr()
        streams[name] = (digest(out.encode("utf-8")), digest(err.encode("utf-8")))
    files = {p.name: digest(p.read_bytes()) for p in sorted(tmp_path.iterdir())}
    assert codes == {name: 0 for name in COMMANDS}
    assert streams == STREAMS
    assert files == FILES
