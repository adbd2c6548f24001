"""
Command-line front end.

Every command reads complex documents in the JSON format of serialize.py and
writes one canonical JSON report to stdout (rank-table writes CSV instead).
Exit codes: 0 on success, 1 on mathematical rejection (invalid or
inadmissible input, incompatible cover, no orbit witness), 2 on usage
or schema errors, on a rank-table --k above MAX_RANK_TABLE_K and on an --out
path that cannot be written.
Outputs are bit-identical across runs for fixed inputs and --seed; timing
goes to stderr and only with --timing. A report's "inputs" field is the
sha256 of the arguments, --timing left out, and of the text of every
document the command read.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

from .category import make_params
from .complexes import equivalent, hf_ranks, single_core, total_rank
from .covers import (
    INFINITE,
    BettiVector,
    CoverError,
    CoverSpec,
    decompose,
    fibre_rank,
    specialize,
    truncation_feasibility,
)
from .linalg import DEFAULT_PRIME
from .normalizer import InadmissibleInput, NormalizeError, normalize
from .serialize import (
    DocumentError,
    ValidationRejection,
    canonical_json,
    complex_to_dict,
    parse_complex,
)
from .twists import SearchExhausted, apply_braid, core_orbit_witness, parse_word, twist, word_to_string

OK, REJECTED, USAGE = 0, 1, 2

# rank-table's largest --k. Every (s1 s0)^k Q0 stays short, so --k bounds the number of steps,
# which nothing else does; the tests, goldens and benchmark ask for k <= 8.
MAX_RANK_TABLE_K = 1000

class CliFailure(Exception):
    def __init__(self, code: int, reason: str, detail: str):
        self.code = code
        self.reason = reason
        self.detail = detail
        super().__init__(detail)


def _read(path: str, documents: list[str]) -> str:
    """The text at path ('-' for stdin), also appended to documents."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliFailure(USAGE, "unreadable-input", f"cannot read {path}: {exc}") from exc
    documents.append(text)
    return text


def _load_complex(path: str, documents: list[str]):
    text = _read(path, documents)
    try:
        return parse_complex(text)
    except ValidationRejection as exc:
        raise CliFailure(REJECTED, "validation-error", str(exc)) from exc


def _load_pair(args, documents: list[str]):
    """The complexes at --a and --b, refused unless they carry the same category parameters."""
    a, b = _load_complex(args.a, documents), _load_complex(args.b, documents)
    if a.params != b.params:
        raise CliFailure(USAGE, "usage-error", "the two complexes carry different category parameters")
    return a, b


def _ranks_payload(ranks: dict[int, int]) -> dict:
    return {"ranks": {str(k): v for k, v in sorted(ranks.items())}, "total": total_rank(ranks)}


def _digest(*chunks: str) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _without_timing(argv) -> list[str]:
    """
    argv without the --timing flag, in each prefix of it that argparse
    accepts ('--t' and up): no other option starts with '--t', and argparse
    reads no value that starts with '--', so such a token is the flag.
    """
    return [arg for arg in argv if not (len(arg) > 2 and "--timing".startswith(arg))]


def _parse_betti(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise CliFailure(USAGE, "usage-error", f"--betti expects comma-separated integers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumbtwist",
        description="exact twisted-complex calculus over a two-core plumbing category")
    parser.add_argument("--n", type=int, default=3, help="dimension of the cores (default 3)")
    parser.add_argument("--char", type=int, default=DEFAULT_PRIME, help="field characteristic, 0 for the rationals")
    parser.add_argument("--betti0", type=str, default=None, help="comma-separated Betti vector for Q0")
    parser.add_argument("--seed", type=int, default=0, help="seed for the quasi-isomorphism search; only equiv reads it")
    parser.add_argument("--out", type=str, default=None, help="write the report here instead of stdout")
    parser.add_argument("--timing", action="store_true", help="report wall time on stderr")
    add = parser.add_subparsers(dest="command", required=True).add_parser
    p = add("validate", help="check a complex document")
    p.add_argument("--in", dest="infile", required=True)
    p = add("hf", help="cohomology ranks of the hom complex between two complexes")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p = add("twist", help="apply one twist letter")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--letter", required=True, help="one of s0 S0 s1 S1")
    p = add("braid", help="apply a braid word")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--word", required=True, help="e.g. 's0 s1 S0'")
    p = add("normalize", help="reduce to copies of one shifted core with a certificate")
    p.add_argument("--in", dest="infile", required=True)
    p = add("equiv", help="three-valued quasi-isomorphism verdict")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p = add("specialize", help="kill the top-class entries of a covered vertex")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cover-vertex", type=int, required=True, choices=(0, 1))
    p.add_argument("--cover-index", default=INFINITE, help="positive integer or 'infinite'")
    p = add("decompose", help="split a minimized complex into connected pieces")
    p.add_argument("--in", dest="infile", required=True)
    p = add("fibre-rank", help="pair a complex against a cotangent fibre")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--vertex", type=int, required=True, choices=(0, 1))
    p = add("feasibility", help="Betti feasibility of a categorical twist")
    p.add_argument("--betti", required=True, help="comma-separated Betti vector")
    p = add("rank-table", help="CSV of total ranks of hf(Q0, (T1 T0)^k Q0)")
    p.add_argument("--k", type=int, default=8)
    p = add("orbit-witness", help="braid word carrying Q0 to a shifted Q1")
    p.add_argument("--max-length", type=int, default=4)
    return parser


def run(args, documents: list[str]) -> tuple[dict | str, int]:
    """Execute a parsed command, returning (payload, exit code); each document read is appended to documents."""
    cmd = args.command

    if cmd == "validate":
        text = _read(args.infile, documents)
        try:
            parse_complex(text)
        except ValidationRejection as exc:
            return {
                "ok": False,
                "violations": [
                    {"kind": v.kind, "slot": list(v.slot) if v.slot else None, "message": v.message}
                    for v in exc.violations
                ],
            }, REJECTED
        return {"ok": True, "violations": []}, OK

    if cmd == "hf":
        return _ranks_payload(hf_ranks(*_load_pair(args, documents))), OK

    if cmd == "twist":
        c = _load_complex(args.infile, documents)
        word = parse_word(args.letter)
        if len(word) != 1:
            raise CliFailure(USAGE, "usage-error", "--letter takes exactly one letter")
        out = twist(c, word[0].vertex, word[0].power)
        return {"complex": complex_to_dict(out)}, OK

    if cmd == "braid":
        c = _load_complex(args.infile, documents)
        return {"complex": complex_to_dict(apply_braid(parse_word(args.word), c))}, OK

    if cmd == "normalize":
        c = _load_complex(args.infile, documents)
        try:
            cert = normalize(c)
        except InadmissibleInput as exc:
            return {"error": "inadmissible", "detail": str(exc)}, REJECTED
        except NormalizeError as exc:
            return {"error": "normalizer-dead-end", "detail": str(exc)}, REJECTED
        return {"certificate": cert.to_dict()}, OK

    if cmd == "equiv":
        return {"verdict": equivalent(*_load_pair(args, documents), seed=args.seed)}, OK

    if cmd == "specialize":
        c = _load_complex(args.infile, documents)
        index = args.cover_index
        if index != INFINITE:
            try:
                index = int(index)
            except ValueError as exc:
                raise CliFailure(USAGE, "usage-error", f"--cover-index must be an integer or '{INFINITE}'") from exc
        try:
            out = specialize(c, CoverSpec(args.cover_vertex, index))
        except CoverError as exc:
            return {"error": "cover-mismatch", "detail": str(exc)}, REJECTED
        return {"complex": complex_to_dict(out)}, OK

    if cmd == "decompose":
        c = _load_complex(args.infile, documents)
        return {"pieces": [complex_to_dict(p) for p in decompose(c)]}, OK

    if cmd == "fibre-rank":
        return _ranks_payload(fibre_rank(_load_complex(args.infile, documents), args.vertex)), OK

    if cmd == "feasibility":
        betti = _parse_betti(args.betti)
        if args.n != len(betti) - 1:
            raise CliFailure(USAGE, "usage-error",
                             f"--betti has {len(betti) - 1} top degree but --n is {args.n}")
        try:
            report = truncation_feasibility(BettiVector(betti))
        except CoverError as exc:
            return {"error": "bad-betti", "detail": str(exc)}, REJECTED
        return {"feasibility": report.to_dict()}, OK

    if cmd == "rank-table":
        if args.k < 0:
            raise CliFailure(USAGE, "usage-error", f"--k must be a non-negative integer, got {args.k}")
        if args.k > MAX_RANK_TABLE_K:
            raise CliFailure(USAGE, "budget-exceeded", f"--k must be at most {MAX_RANK_TABLE_K}, got {args.k}")
        params = _params_from_args(args)
        q0 = single_core(params, 0)
        lines = ["k,total_rank"]
        c = q0
        for k in range(1, args.k + 1):
            c = apply_braid("s1 s0", c)
            lines.append(f"{k},{total_rank(hf_ranks(q0, c))}")
        return "\n".join(lines) + "\n", OK

    if cmd == "orbit-witness":
        if args.max_length < 0:
            raise CliFailure(USAGE, "usage-error",
                             f"--max-length must be a non-negative integer, got {args.max_length}")
        params = _params_from_args(args)
        if not params.spherical:
            raise CliFailure(USAGE, "usage-error", "the orbit search needs spherical cores (drop --betti0)")
        try:
            word, shiftval = core_orbit_witness(params.n, params.field.characteristic,
                                                max_length=args.max_length)
        except SearchExhausted as exc:
            return {"error": "search-exhausted", "detail": str(exc)}, REJECTED
        return {"word": word_to_string(word), "shift": shiftval}, OK

    raise CliFailure(USAGE, "usage-error", f"unknown command {cmd}")


def _params_from_args(args):
    betti0 = _parse_betti(args.betti0) if args.betti0 else None
    return make_params(args.n, args.char, betti0)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    started = time.monotonic()
    documents: list[str] = []
    try:
        payload, code = run(args, documents)
    except CliFailure as exc:
        payload, code = {"error": exc.reason, "detail": exc.detail}, exc.code
    except DocumentError as exc:
        payload, code = {"error": "schema-error", "detail": str(exc)}, USAGE
    except ValueError as exc:  # ParameterError included
        payload, code = {"error": "usage-error", "detail": str(exc)}, USAGE

    def render(payload) -> str:
        if isinstance(payload, str):
            return payload  # CSV output
        inputs = _digest(canonical_json(_without_timing(sys.argv[1:] if argv is None else argv)), *documents)
        return canonical_json({"command": args.command, "inputs": inputs, "outputs": payload}) + "\n"

    text = render(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            text = ""
        except OSError as exc:
            text = render({"error": "unwritable-output", "detail": f"cannot write {args.out}: {exc}"})
            code = USAGE
    sys.stdout.write(text)
    if args.timing:
        sys.stderr.write(f"wall_time_ms={int((time.monotonic() - started) * 1000)}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
