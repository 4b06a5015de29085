#!/usr/bin/env python3
"""flexcs-lint: static contract checker for the flexcs source tree.

Enforces project invariants the compiler cannot express:

  pragma-once       every header uses `#pragma once`
  using-namespace   no `using namespace` at any scope inside a header
  raw-new-delete    no raw `new` / `delete` expressions outside src/la
                    (`= delete;` member suppression is fine anywhere)
  rng-discipline    no std::rand / srand / std::random_device / std::mt19937
                    etc. outside src/common/rng.* — all randomness flows
                    through flexcs::Rng so a single seed reproduces a run
  float-equality    no == / != against a non-zero floating literal; exact
                    comparison against 0.0 is allowed (the skip-zero sparsity
                    idiom is IEEE-exact), anything else wants a tolerance
  entry-check       every public solver/encoder/decoder entry point validates
                    its inputs (FLEXCS_CHECK / validate_solve_inputs or a
                    delegation to a validating overload) before touching data
  threading         thread creation (std::thread / std::jthread) is confined
                    to src/runtime/ — the streaming runtime owns all
                    concurrency; `.detach()` is banned everywhere (threads
                    must be joined so shutdown is deterministic); mutex
                    members in headers must be the annotated
                    flexcs::common::Mutex (raw std::mutex carries no
                    compiler-checked capability), and every mutex member must
                    be named by at least one FLEXCS_GUARDED_BY /
                    FLEXCS_PT_GUARDED_BY / FLEXCS_REQUIRES (or acquire/
                    release) contract in the same header — a comment is no
                    longer enough; Clang TSA verifies the contract under the
                    `analyze` preset; process control (::fork / ::kill /
                    ::waitpid / ::socketpair / ...) is likewise confined to
                    src/runtime/ — the decode-service broker owns worker
                    process lifecycles, and a stray fork() under a
                    multi-threaded layer inherits locked mutexes it can
                    never unlock; socket syscalls (::socket / ::bind /
                    ::listen / ::accept / ::connect) are likewise confined
                    to src/runtime/ — every socket fd flows through the
                    net transport (runtime/net.hpp) so nonblocking setup,
                    EINTR handling, and fd hygiene across fork() live in
                    exactly one place; byte-I/O syscalls (::read / ::write /
                    ::send / ::recv) are confined to src/runtime/posix_io.cpp
                    — every byte a worker link moves goes through its
                    EINTR-safe helpers, so there is one transport
  deadline-poll     every bounded iteration loop in the iterative kernels
                    (src/solvers/, src/rpca/, src/lp/, src/la/) polls its
                    cooperative deadline/cancel control — a loop over
                    max_iterations that never calls should_stop()/checks the
                    token would hang past its frame budget; and every
                    unbounded supervision loop in src/runtime/ (`for (;;)`,
                    `while (true)`) must either poll a deadline/heartbeat
                    token or contain an explicit break/return — an exitless
                    infinite loop in the broker is a guaranteed hang
  build-flags       CMake files under src/ (CMakeLists.txt, *.cmake) may not
                    use host- or value-changing floating-point flags:
                    -march=, -mtune=native, -mfma, -ffast-math, -Ofast,
                    -ffp-contract=fast. They make results depend on the host
                    CPU or let the compiler reassociate and contract, so a
                    forked, remote and in-process executor would no longer
                    decode the same (seed, frame, tile) to the same pixels.
                    x86 ISA-extension flags (-mavx*, -msse3, -mssse3,
                    -msse4*, -mbmi*, -mf16c) are banned too: a library
                    built with one crashes on a host without it. The one
                    runtime-dispatched kernel object (src/dsp/fold_kernel.cpp
                    with -mavx2) carries the allow marker. For the same
                    reason C++ sources under src/ may not pick an ISA per
                    function (__attribute__((target(...))), target_clones,
                    [[gnu::target(...)]]) nor include an intrinsics header
                    (<immintrin.h>, <x86intrin.h>, <emmintrin.h>, any other
                    *intrin.h, <arm_neon.h>): an intrinsic names one ISA's
                    instruction, so the library would no longer build and
                    decode the same bits on every host. SIMD code uses GCC
                    vector extensions, which every target compiles
  dense-branch      under src/solvers/, only the entry-hungry solvers
                    (omp.cpp, bp_lp.cpp), FISTA's zero-matrix Lipschitz
                    shortcut (fista.cpp) and the shared input validation
                    (solver.cpp) may call `.dense()` / `->dense()`. Every
                    other solver runs one body on the operator's applies, so
                    a DenseOperator and an implicit operator of the same
                    entries take the same path; a second, dense-only kernel
                    is a path no decode runs
  basis-branch      under src/, only src/dsp/ may compare against or `case`
                    on a `BasisKind::k*` enumerator. dsp::BasisTransform is
                    the one place that picks the DCT or the Haar kernels;
                    a basis branch anywhere else is a second copy of that
                    dispatch. Assigning a basis (`opts.basis =
                    dsp::BasisKind::kHaar2D`) and comparing two bases
                    (`opts.basis == opts_.basis`) do not fire
  unset-option      every scalar field with a default initializer in an
                    option struct of the decode stack (headers in
                    src/runtime, src/cs, src/solvers and src/rpca: *Options,
                    *Config, LadderBudget, AcceptanceThresholds,
                    WorkerFaultInjection) is assigned (`.name =`) somewhere
                    under src/, bench/, tests/, examples/ or perfbench/,
                    outside its own header. A knob nothing sets is a
                    constant in disguise: make it a named constexpr beside
                    its use. Matching is by field name, so a name shared by
                    several structs counts as set when any of them is set
  design-locks      DESIGN.md §7 (the concurrency contract) names every
                    common::Mutex member declared under src/, and every
                    `*mu_` it names is declared there — the lock table
                    cannot go stale. Skipped when the tree has no DESIGN.md

A line may opt out of one rule with a trailing marker comment:

    dangerous_thing();  // flexcs-lint: allow(rule-id)
    set(FLAGS -mfma)    # flexcs-lint: allow(build-flags)

Stdlib-only; runs standalone (`python3 tools/flexcs_lint.py --root .`) and as
the ctest `lint.flexcs`. Exit status 0 = clean, 1 = findings, 2 = usage error.
Known textual limitations: raw-string literals and float==float comparisons
between two identifiers are not detected.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")
SOURCE_EXTS = (".hpp", ".cpp")

# Build files the build-flags rule reads (CMake under these directories).
CMAKE_DIRS = ("src",)

# Directory prefix whose files may use raw new/delete (owning containers).
RAW_NEW_ALLOWED_PREFIX = "src/la/"

# Files allowed to touch <random> / rand machinery directly.
RNG_ALLOWED = ("src/common/rng.hpp", "src/common/rng.cpp")

# Public entry points that must validate inputs before touching data.
# (file, function regex, accepted validation tokens). A missing file or an
# unmatched function is itself a finding: it means the contract surface moved
# without the lint being updated.
ENTRY_POINTS: Sequence[Tuple[str, str, Tuple[str, ...]]] = (
    ("src/solvers/fista.cpp", r"FistaSolver::solve_impl\b", ("validate_solve_inputs", "FLEXCS_CHECK")),
    ("src/solvers/solver.cpp", r"SparseSolver::solve_batch\b", ("FLEXCS_CHECK",)),
    ("src/solvers/omp.cpp", r"OmpSolver::solve_impl\b", ("validate_solve_inputs", "FLEXCS_CHECK")),
    ("src/solvers/cosamp.cpp", r"CosampSolver::solve_impl\b", ("validate_solve_inputs", "FLEXCS_CHECK")),
    ("src/solvers/irls.cpp", r"IrlsSolver::solve_impl\b", ("validate_solve_inputs", "FLEXCS_CHECK")),
    ("src/solvers/admm.cpp", r"AdmmLassoSolver::solve_impl\b", ("validate_solve_inputs", "FLEXCS_CHECK")),
    ("src/solvers/bp_lp.cpp", r"BpLpSolver::solve_impl\b", ("validate_solve_inputs", "FLEXCS_CHECK")),
    ("src/solvers/solver.cpp", r"\bdebias_on_support", ("FLEXCS_CHECK",)),
    ("src/la/operator.cpp", r"\bcg_solve\b", ("FLEXCS_CHECK",)),
    # Matrix-free measurement operator: the constructor owns the pattern
    # validation; apply/apply_adjoint re-check shapes because solvers hand
    # them arbitrary iterate vectors.
    ("src/cs/transform_operator.cpp",
     r"SubsampledTransformOperator::SubsampledTransformOperator\b",
     ("FLEXCS_CHECK",)),
    ("src/cs/transform_operator.cpp",
     r"SubsampledTransformOperator::apply\b", ("FLEXCS_CHECK",)),
    ("src/cs/transform_operator.cpp",
     r"SubsampledTransformOperator::apply_adjoint\b", ("FLEXCS_CHECK",)),
    # Fast transform kernels: the DCT plan constructor owns the length
    # validation (every apply goes through a plan), the in-place Haar
    # kernels re-run the level/dimension contract via check_levels.
    ("src/dsp/fft.cpp", r"Dct1dPlan::Dct1dPlan\b", ("FLEXCS_CHECK",)),
    ("src/dsp/fft.cpp", r"\bdct2d_apply\b", ("FLEXCS_CHECK",)),
    ("src/dsp/fft.cpp", r"\bidct2d_apply\b", ("FLEXCS_CHECK",)),
    ("src/dsp/wavelet.cpp", r"\bhaar2d_inplace\b", ("check_levels",)),
    ("src/dsp/wavelet.cpp", r"\bihaar2d_inplace\b", ("check_levels",)),
    ("src/cs/encoder.cpp", r"Encoder::encode\b", ("FLEXCS_CHECK",)),
    ("src/cs/encoder.cpp", r"Encoder::encode_scanned\b", ("FLEXCS_CHECK",)),
    ("src/cs/decoder.cpp", r"Decoder::decode\b", ("FLEXCS_CHECK", "decode_with")),
    ("src/cs/decoder.cpp", r"Decoder::decode_with\b", ("FLEXCS_CHECK",)),
    ("src/cs/decoder.cpp", r"Decoder::measurement_operator\b", ("FLEXCS_CHECK",)),
    ("src/cs/sampling.cpp", r"\bapply_pattern\b", ("FLEXCS_CHECK",)),
    ("src/cs/sampling.cpp", r"\bresolve_fraction\b", ("FLEXCS_CHECK",)),
    ("src/cs/faults.cpp", r"FaultScenario::corrupt_frame\b", ("FLEXCS_CHECK",)),
    ("src/cs/faults.cpp", r"FaultScenario::corrupt_measurements\b", ("FLEXCS_CHECK",)),
    ("src/cs/pipeline.cpp", r"\bdecode_trimmed\b", ("FLEXCS_CHECK",)),
    ("src/runtime/pipeline.cpp", r"RobustPipeline::process\b", ("FLEXCS_CHECK",)),
    ("src/runtime/shard.cpp", r"ShardedDecoder::ShardedDecoder\b", ("FLEXCS_CHECK",)),
    ("src/runtime/shard.cpp", r"ShardedDecoder::process\b", ("FLEXCS_CHECK",)),
    # The tile front end both executors share: begin() validates the frame
    # shape, complete() that the tile is an open job of the frame.
    ("src/runtime/shard.cpp", r"TileFrontEnd::begin\b", ("FLEXCS_CHECK",)),
    ("src/runtime/shard.cpp", r"TileFrontEnd::complete\b", ("FLEXCS_CHECK",)),
    ("src/runtime/tile_grid.cpp", r"TileGrid::TileGrid\b", ("FLEXCS_CHECK",)),
    ("src/runtime/tile_grid.cpp", r"TileGrid::copy_interior\b",
     ("FLEXCS_CHECK",)),
    # Event-driven readout: the gate validates its options at construction
    # and every frame's shape on update; the detector accessor bounds-checks
    # the tile index.
    ("src/runtime/activity.cpp", r"ActivityGate::ActivityGate\b",
     ("FLEXCS_CHECK",)),
    ("src/runtime/activity.cpp", r"ActivityGate::update\b", ("FLEXCS_CHECK",)),
    ("src/runtime/activity.cpp", r"ActivityGate::detector\b",
     ("FLEXCS_CHECK",)),
    # Multi-process decode service: the typed wire decoders validate every
    # structural claim an untrusted peer process can make, the worker loop
    # validates its transport/geometry, and the broker validates each frame
    # on entry to process().
    ("src/runtime/wire.cpp", r"\bdecode_tile_request\b", ("FLEXCS_CHECK",)),
    ("src/runtime/wire.cpp", r"\bdecode_tile_response\b", ("FLEXCS_CHECK",)),
    # Remote (TCP) fleet: the handshake decoders validate an untrusted
    # peer's claims, the remote worker loop validates its target/geometry,
    # and the transport validates its bind before exposing a port.
    ("src/runtime/wire.cpp", r"\bdecode_hello\b", ("FLEXCS_CHECK",)),
    ("src/runtime/wire.cpp", r"\bdecode_hello_ack\b", ("FLEXCS_CHECK",)),
    ("src/runtime/net.cpp", r"Listener::open\b", ("FLEXCS_CHECK",)),
    ("src/runtime/worker.cpp", r"\bdecode_worker_loop\b", ("FLEXCS_CHECK",)),
    ("src/runtime/worker.cpp", r"\bremote_decode_worker_loop\b",
     ("FLEXCS_CHECK",)),
    ("src/runtime/service.cpp", r"DecodeService::DecodeService\b", ("FLEXCS_CHECK",)),
    ("src/runtime/service.cpp", r"DecodeService::process\b", ("FLEXCS_CHECK",)),
)

# How deep into a function body (in non-blank lines) validation must appear.
ENTRY_CHECK_WINDOW = 15

ALLOW_RE = re.compile(r"flexcs-lint:\s*allow\(([a-z0-9-]+)\)")


class Finding(NamedTuple):
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments, string and char literals, preserving newlines so
    line numbers in the stripped text match the original."""
    out: List[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def strip_cmake_comments(text: str) -> str:
    """Blanks CMake `#` comments outside quoted arguments, preserving
    newlines. Bracket comments (`#[[ ... ]]`) are blanked only on their
    first line."""
    out: List[str] = []
    for line in text.split("\n"):
        in_string = False
        cut = len(line)
        i = 0
        while i < len(line):
            c = line[i]
            if in_string and c == "\\":
                i += 2
                continue
            if c == '"':
                in_string = not in_string
            elif c == "#" and not in_string:
                cut = i
                break
            i += 1
        out.append(line[:cut] + " " * (len(line) - cut))
    return "\n".join(out)


def is_cmake(relpath: str) -> bool:
    return relpath.endswith("CMakeLists.txt") or relpath.endswith(".cmake")


def suppressed_rules(original_line: str) -> List[str]:
    return ALLOW_RE.findall(original_line)


class SourceFile(NamedTuple):
    relpath: str
    text: str
    stripped: str

    @property
    def lines(self) -> List[str]:
        return self.text.splitlines()

    @property
    def stripped_lines(self) -> List[str]:
        return self.stripped.splitlines()

    def is_header(self) -> bool:
        return self.relpath.endswith(".hpp")

    def finding_unless_allowed(self, line_no: int, rule: str,
                               message: str) -> Optional[Finding]:
        lines = self.lines
        original = lines[line_no - 1] if 0 < line_no <= len(lines) else ""
        if rule in suppressed_rules(original):
            return None
        return Finding(self.relpath, line_no, rule, message)


# ---------------------------------------------------------------------------
# Per-file rules


def check_pragma_once(f: SourceFile) -> List[Finding]:
    if not f.is_header():
        return []
    for line in f.stripped_lines:
        if line.strip().startswith("#pragma once"):
            return []
    return [Finding(f.relpath, 1, "pragma-once", "header lacks '#pragma once'")]


def check_using_namespace(f: SourceFile) -> List[Finding]:
    if not f.is_header():
        return []
    findings: List[Finding] = []
    pat = re.compile(r"\busing\s+namespace\b")
    for idx, line in enumerate(f.stripped_lines, start=1):
        if pat.search(line):
            fd = f.finding_unless_allowed(
                idx, "using-namespace",
                "'using namespace' in a header leaks into every includer")
            if fd:
                findings.append(fd)
    return findings


_NEW_RE = re.compile(r"\bnew\b")
_DELETE_RE = re.compile(r"\bdelete\b")


def check_raw_new_delete(f: SourceFile) -> List[Finding]:
    if f.relpath.startswith(RAW_NEW_ALLOWED_PREFIX):
        return []
    findings: List[Finding] = []
    for idx, line in enumerate(f.stripped_lines, start=1):
        for m in _NEW_RE.finditer(line):
            prefix = line[:m.start()].rstrip()
            if prefix.endswith("operator"):
                continue
            fd = f.finding_unless_allowed(
                idx, "raw-new-delete",
                "raw 'new' outside src/la — use std::vector / smart pointers")
            if fd:
                findings.append(fd)
        for m in _DELETE_RE.finditer(line):
            prefix = line[:m.start()].rstrip()
            if prefix.endswith("=") or prefix.endswith("operator"):
                continue  # deleted member fn / operator delete declaration
            fd = f.finding_unless_allowed(
                idx, "raw-new-delete",
                "raw 'delete' outside src/la — use RAII ownership")
            if fd:
                findings.append(fd)
    return findings


_RNG_RE = re.compile(
    r"\bstd::rand\b|\bsrand\s*\(|\bstd::random_device\b|\bstd::mt19937(?:_64)?\b"
    r"|\bstd::default_random_engine\b|\bstd::minstd_rand0?\b")


def check_rng_discipline(f: SourceFile) -> List[Finding]:
    if f.relpath in RNG_ALLOWED:
        return []
    findings: List[Finding] = []
    for idx, line in enumerate(f.stripped_lines, start=1):
        if _RNG_RE.search(line):
            fd = f.finding_unless_allowed(
                idx, "rng-discipline",
                "ad-hoc RNG breaks run reproducibility — draw from "
                "flexcs::Rng (common/rng.hpp) instead")
            if fd:
                findings.append(fd)
    return findings


_FLOAT_LIT = r"(?:\d+\.\d*|\.\d+|\d+\.?\d*[eE][+-]?\d+)[fFlL]?"
_FLOAT_EQ_RE = re.compile(
    r"[=!]=\s*[+-]?(" + _FLOAT_LIT + r")|(" + _FLOAT_LIT + r")\s*[=!]=")


def _literal_value(lit: str) -> float:
    return float(lit.rstrip("fFlL"))


def check_float_equality(f: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    for idx, line in enumerate(f.stripped_lines, start=1):
        for m in _FLOAT_EQ_RE.finditer(line):
            lit = m.group(1) or m.group(2)
            if _literal_value(lit) == 0.0:
                continue  # exact-zero round-trips are IEEE-exact by design
            fd = f.finding_unless_allowed(
                idx, "float-equality",
                f"equality against floating literal {lit} — "
                "compare with a tolerance (or suppress in a test helper)")
            if fd:
                findings.append(fd)
    return findings


# Directory prefix whose files may create threads (the streaming runtime owns
# all concurrency; everything below it stays single-threaded and composable).
THREAD_ALLOWED_PREFIX = "src/runtime/"

# The annotated locking primitives themselves: the raw std::mutex inside the
# flexcs::common::Mutex wrapper is the one mutex the contract machinery
# cannot apply to (it IS the capability).
MUTEX_CONTRACT_EXEMPT = ("src/common/annotations.hpp",)

_THREAD_SPAWN_RE = re.compile(r"\bstd::j?thread\b")
_DETACH_RE = re.compile(r"\.\s*detach\s*\(")
# Global-scope-qualified POSIX process control (the project idiom for
# syscalls). The lookbehind keeps member functions like Rng::fork() and
# DecodeService member calls out of scope — only `::fork(` at global scope
# matches.
_PROCESS_CONTROL_RE = re.compile(
    r"(?<![\w>])::(?:v?fork|kill|raise|waitpid|wait|socketpair|pipe2?"
    r"|execvp?e?|_[eE]xit)\s*\(")
# Socket transport syscalls: confined to src/runtime/ for the same reason —
# the net transport (runtime/net.hpp) owns every socket fd, so nonblocking
# setup, EINTR retries, and close-on-fork hygiene are implemented once. The
# lookbehind again keeps member functions (service.connect(...)) out of
# scope — only the global-scope-qualified syscall matches.
_SOCKET_SYSCALL_RE = re.compile(
    r"(?<![\w>])::(?:socket|bind|listen|accept4?|connect)\s*\(")
# Byte-I/O syscalls: confined to the one EINTR-safe helper file every
# transport (socketpair and TCP alike) reads and writes through.
_BYTE_IO_RE = re.compile(r"(?<![\w>])::(?:read|write|send|recv)\s*\(")
BYTE_IO_ALLOWED = "src/runtime/posix_io.cpp"
_STD_MUTEX_MEMBER_RE = re.compile(
    r"\bstd::(?:shared_|recursive_|timed_|recursive_timed_)?mutex\s+(\w+)\s*;")
_WRAPPED_MUTEX_MEMBER_RE = re.compile(
    r"\b(?:flexcs::)?(?:common::)?Mutex\s+(\w+)\s*;")


def _has_lock_contract(stripped: str, mutex_name: str) -> bool:
    """True when at least one FLEXCS_* capability contract names the mutex:
    a member guarded by it, or a function that requires/acquires/releases
    it. FLEXCS_EXCLUDES alone is not a contract — it documents what a caller
    must NOT hold, it never says what the mutex protects."""
    esc = re.escape(mutex_name)
    contract = re.compile(
        r"FLEXCS_(?:PT_)?GUARDED_BY\(\s*" + esc + r"\s*\)"
        r"|FLEXCS_(?:REQUIRES|ACQUIRE|RELEASE|TRY_ACQUIRE)\([^)]*\b" + esc
        + r"\b")
    return contract.search(stripped) is not None


def check_threading(f: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    for idx, line in enumerate(f.stripped_lines, start=1):
        if _DETACH_RE.search(line):
            fd = f.finding_unless_allowed(
                idx, "threading",
                "'.detach()' orphans a thread past shutdown — keep the "
                "handle and join it")
            if fd:
                findings.append(fd)
        if (_THREAD_SPAWN_RE.search(line)
                and not f.relpath.startswith(THREAD_ALLOWED_PREFIX)):
            fd = f.finding_unless_allowed(
                idx, "threading",
                "std::thread outside src/runtime/ — concurrency lives in the "
                "streaming runtime; lower layers stay single-threaded")
            if fd:
                findings.append(fd)
        if (_PROCESS_CONTROL_RE.search(line)
                and not f.relpath.startswith(THREAD_ALLOWED_PREFIX)):
            fd = f.finding_unless_allowed(
                idx, "threading",
                "process control (::fork/::kill/::waitpid/...) outside "
                "src/runtime/ — the decode-service broker owns worker "
                "process lifecycles")
            if fd:
                findings.append(fd)
        if (_SOCKET_SYSCALL_RE.search(line)
                and not f.relpath.startswith(THREAD_ALLOWED_PREFIX)):
            fd = f.finding_unless_allowed(
                idx, "threading",
                "socket syscall (::socket/::bind/::listen/::accept/"
                "::connect) outside src/runtime/ — go through the net "
                "transport (net::Listener / net::connect_to) so fd "
                "discipline lives in one place")
            if fd:
                findings.append(fd)
        if _BYTE_IO_RE.search(line) and f.relpath != BYTE_IO_ALLOWED:
            fd = f.finding_unless_allowed(
                idx, "threading",
                "byte-I/O syscall (::read/::write/::send/::recv) outside "
                "src/runtime/posix_io.cpp — move bytes through the io:: "
                "helpers or net::Connection so there is one transport")
            if fd:
                findings.append(fd)
    if f.is_header() and f.relpath not in MUTEX_CONTRACT_EXEMPT:
        for idx, line in enumerate(f.stripped_lines, start=1):
            std_m = _STD_MUTEX_MEMBER_RE.search(line)
            if std_m:
                fd = f.finding_unless_allowed(
                    idx, "threading",
                    f"std::mutex member '{std_m.group(1)}' in a header — use "
                    "flexcs::common::Mutex (common/annotations.hpp) so Clang "
                    "TSA can enforce its locking contract")
                if fd:
                    findings.append(fd)
                continue
            wrapped = _WRAPPED_MUTEX_MEMBER_RE.search(line)
            if not wrapped:
                continue
            name = wrapped.group(1)
            if _has_lock_contract(f.stripped, name):
                continue
            fd = f.finding_unless_allowed(
                idx, "threading",
                f"mutex member '{name}' has no FLEXCS_GUARDED_BY / "
                "FLEXCS_REQUIRES contract in this header — annotate what it "
                "protects so the `analyze` preset can verify every access")
            if fd:
                findings.append(fd)
    return findings


# Iterative-kernel scope for the deadline-poll rule: any bounded iteration
# loop here must poll the cooperative deadline/cancel control so an expired
# solve stops at the next iteration boundary (the streaming runtime's
# bounded-latency contract).
DEADLINE_POLL_DIRS = ("src/solvers/", "src/rpca/", "src/lp/", "src/la/")

# A loop counts as a bounded solver iteration when its header names one of
# these budget tokens.
_LOOP_BOUND_TOKENS = ("max_iterations", "max_iters", "kMaxIters", "kmax",
                      "max_sweeps")

# ...and its body must reference one of these to count as polling.
_DEADLINE_POLL_TOKENS = ("should_stop", "cancelled", "deadline", "expired",
                         "cancel")

# Supervision scope: unbounded loops (`for (;;)`, `while (true)`) in the
# streaming/service runtime must either poll a time-based token or contain
# an explicit exit statement — the broker event loop, the worker read loop,
# and the sharded decoder's worker loop all run "forever" by design, but each
# iteration must be able to leave.
RUNTIME_SUPERVISION_PREFIX = "src/runtime/"

# Matched against the loop header with all whitespace removed.
_UNBOUNDED_HEADER_RE = re.compile(r"^\((?:;;|true|1)\)$")

# Exit paths that satisfy the supervision rule, on top of the poll tokens.
_SUPERVISION_EXIT_TOKENS = _DEADLINE_POLL_TOKENS + (
    "heartbeat", "poll", "break", "return", "throw")

_LOOP_HEAD_RE = re.compile(r"\b(?:for|while)\s*\(")


def _balanced_span(text: str, start: int, open_ch: str, close_ch: str
                   ) -> Optional[int]:
    """Index one past the matching closer for the opener at `start`."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return None


def check_deadline_poll(f: SourceFile) -> List[Finding]:
    in_kernels = f.relpath.startswith(DEADLINE_POLL_DIRS)
    in_runtime = f.relpath.startswith(RUNTIME_SUPERVISION_PREFIX)
    if not (in_kernels or in_runtime):
        return []
    findings: List[Finding] = []
    text = f.stripped
    for m in _LOOP_HEAD_RE.finditer(text):
        paren_open = text.index("(", m.start())
        paren_end = _balanced_span(text, paren_open, "(", ")")
        if paren_end is None:
            continue
        header = text[paren_open:paren_end]
        bounded_solver_loop = in_kernels and any(
            tok in header for tok in _LOOP_BOUND_TOKENS)
        unbounded_supervision_loop = in_runtime and bool(
            _UNBOUNDED_HEADER_RE.match(re.sub(r"\s+", "", header)))
        if not (bounded_solver_loop or unbounded_supervision_loop):
            continue
        line_no = text.count("\n", 0, m.start()) + 1
        # Loop body: the braced block after the header, or the single
        # statement up to ';' for brace-less loops.
        i = paren_end
        while i < len(text) and text[i] in " \t\n":
            i += 1
        if i < len(text) and text[i] == "{":
            body_end = _balanced_span(text, i, "{", "}")
            body = text[i:body_end] if body_end else text[i:]
        else:
            semi = text.find(";", i)
            body = text[i:semi if semi != -1 else len(text)]
        if bounded_solver_loop:
            if any(tok in body for tok in _DEADLINE_POLL_TOKENS):
                continue
            fd = f.finding_unless_allowed(
                line_no, "deadline-poll",
                "bounded solver loop never polls its deadline/cancel token — "
                "check ctrl.should_stop() (or the deadline/cancel members) "
                "each iteration so expired solves stop at the next boundary")
            if fd:
                findings.append(fd)
            continue
        if any(tok in body for tok in _SUPERVISION_EXIT_TOKENS):
            continue
        fd = f.finding_unless_allowed(
            line_no, "deadline-poll",
            "unbounded supervision loop has no exit path — poll a deadline/"
            "heartbeat token or break/return so the broker cannot hang")
        if fd:
            findings.append(fd)
    return findings


_BUILD_FLAG_RE = re.compile(
    r"(?<![\w-])(-march=|-mtune=native|-mfma|-ffast-math|-Ofast"
    r"|-ffp-contract=fast"
    r"|-mavx\w*|-ms?sse3|-msse4[\w.]*|-mbmi\w*|-mf16c)")


def check_build_flags(f: SourceFile) -> List[Finding]:
    if not any(f.relpath.startswith(d + "/") for d in CMAKE_DIRS):
        return []
    findings: List[Finding] = []
    for idx, line in enumerate(f.stripped_lines, start=1):
        for m in _BUILD_FLAG_RE.finditer(line):
            fd = f.finding_unless_allowed(
                idx, "build-flags",
                f"'{m.group(1)}' makes the library depend on the host CPU "
                "or on contraction — every executor on every host must "
                "decode the same tile to the same pixels")
            if fd:
                findings.append(fd)
    return findings


_TARGET_ATTRIBUTE_RE = re.compile(
    r"(__attribute__\s*\(\(\s*(?:__)?target(?:__)?\s*\(|\btarget_clones\b"
    r"|\[\[\s*gnu::(?:__)?target)")


def check_target_attributes(f: SourceFile) -> List[Finding]:
    if not f.relpath.startswith("src/"):
        return []
    findings: List[Finding] = []
    for idx, line in enumerate(f.stripped_lines, start=1):
        for m in _TARGET_ATTRIBUTE_RE.finditer(line):
            fd = f.finding_unless_allowed(
                idx, "build-flags",
                f"'{m.group(1)}' picks an ISA per function — build a "
                "separate kernel object and dispatch at run time instead "
                "(src/dsp/fold_kernel.cpp)")
            if fd:
                findings.append(fd)
    return findings


_INTRINSICS_INCLUDE_RE = re.compile(
    r"^\s*#\s*include\s*[<\"]((?:[\w/]*/)?(?:\w*intrin\.h|arm_neon\.h))[>\"]")


def check_intrinsics_includes(f: SourceFile) -> List[Finding]:
    if not f.relpath.startswith("src/"):
        return []
    findings: List[Finding] = []
    stripped = f.stripped_lines
    for idx, line in enumerate(f.lines, start=1):
        # The stripped line blanks a quoted header name but keeps the
        # directive, so a commented-out include does not fire.
        code = stripped[idx - 1] if idx <= len(stripped) else ""
        m = _INTRINSICS_INCLUDE_RE.match(line)
        if not m or "include" not in code:
            continue
        fd = f.finding_unless_allowed(
            idx, "build-flags",
            f"'{m.group(1)}' ties the library to one ISA's instructions — "
            "write the kernel with GCC vector extensions, so every host "
            "builds it and decodes the same bits")
        if fd:
            findings.append(fd)
    return findings


# Solver sources that may read an operator's matrix (dense-branch rule).
DENSE_BRANCH_DIR = "src/solvers/"
DENSE_BRANCH_ALLOWED = ("omp.cpp", "bp_lp.cpp", "fista.cpp", "solver.cpp")
_DENSE_CALL_RE = re.compile(r"(?:\.|->)\s*dense\s*\(\s*\)")


def check_dense_branch(f: SourceFile) -> List[Finding]:
    if not f.relpath.startswith(DENSE_BRANCH_DIR):
        return []
    if f.relpath[len(DENSE_BRANCH_DIR):] in DENSE_BRANCH_ALLOWED:
        return []
    findings: List[Finding] = []
    for idx, line in enumerate(f.stripped_lines, start=1):
        if _DENSE_CALL_RE.search(line):
            fd = f.finding_unless_allowed(
                idx, "dense-branch",
                "solver branches on dense() — run the operator path for "
                "every operator (only OMP, BP-LP, FISTA's zero-matrix check "
                "and input validation read the matrix)")
            if fd:
                findings.append(fd)
    return findings


# Where a basis may be branched on (basis-branch rule): the dsp layer alone.
BASIS_BRANCH_ALLOWED_PREFIX = "src/dsp/"
_BASIS_BRANCH_RE = re.compile(
    r"[=!]=\s*(?:\w+::)*BasisKind::k\w+"
    r"|\bBasisKind::k\w+\s*[=!]="
    r"|\bcase\s+(?:\w+::)*BasisKind::k\w+")


def check_basis_branch(f: SourceFile) -> List[Finding]:
    if not f.relpath.startswith("src/"):
        return []
    if f.relpath.startswith(BASIS_BRANCH_ALLOWED_PREFIX):
        return []
    findings: List[Finding] = []
    for idx, line in enumerate(f.stripped_lines, start=1):
        if _BASIS_BRANCH_RE.search(line):
            fd = f.finding_unless_allowed(
                idx, "basis-branch",
                "branch on the sparsifying basis outside src/dsp/ — run "
                "dsp::BasisTransform's analyze/synthesize, which is the one "
                "DCT/Haar dispatch")
            if fd:
                findings.append(fd)
    return findings


FILE_RULES: Sequence[Callable[[SourceFile], List[Finding]]] = (
    check_pragma_once,
    check_using_namespace,
    check_raw_new_delete,
    check_rng_discipline,
    check_float_equality,
    check_threading,
    check_deadline_poll,
    check_target_attributes,
    check_intrinsics_includes,
    check_dense_branch,
    check_basis_branch,
)


# ---------------------------------------------------------------------------
# Tree-level rule: entry-point input validation


def _function_body(stripped: str, name_re: str) -> Optional[Tuple[int, str]]:
    """Returns (first body line number, body text) of the first definition of
    a function whose name matches `name_re`, or None."""
    for m in re.finditer(name_re, stripped):
        # Walk forward to the opening brace of the definition; give up at ';'
        # (that was a declaration, keep looking).
        i = m.end()
        depth_paren = 0
        while i < len(stripped):
            c = stripped[i]
            if c == "(":
                depth_paren += 1
            elif c == ")":
                depth_paren -= 1
            elif c == ";" and depth_paren == 0:
                break  # declaration only
            elif c == "{" and depth_paren == 0:
                start = i + 1
                depth = 1
                j = start
                while j < len(stripped) and depth:
                    if stripped[j] == "{":
                        depth += 1
                    elif stripped[j] == "}":
                        depth -= 1
                    j += 1
                body = stripped[start:j - 1] if depth == 0 else stripped[start:]
                line_no = stripped.count("\n", 0, start) + 1
                return line_no, body
            i += 1
    return None


def check_entry_points(root: Path, files: dict,
                       partial: bool = False) -> List[Finding]:
    """`partial` = linting an explicit file subset: specs for files outside
    the subset are skipped rather than reported as missing."""
    findings: List[Finding] = []
    for relpath, func_re, tokens in ENTRY_POINTS:
        f = files.get(relpath)
        if f is None:
            if not partial and (root / relpath.split("/")[0]).is_dir():
                findings.append(Finding(
                    relpath, 1, "entry-check",
                    f"entry-point file missing (lint config expects {func_re})"))
            continue
        found = _function_body(f.stripped, func_re)
        if found is None:
            findings.append(Finding(
                f.relpath, 1, "entry-check",
                f"entry point /{func_re}/ not found — update tools/flexcs_lint.py "
                "if it moved"))
            continue
        line_no, body = found
        window = [ln for ln in body.splitlines() if ln.strip()][:ENTRY_CHECK_WINDOW]
        head = "\n".join(window)
        if not any(tok in head for tok in tokens):
            findings.append(Finding(
                f.relpath, line_no, "entry-check",
                f"/{func_re}/ must validate inputs via one of {list(tokens)} "
                f"within its first {ENTRY_CHECK_WINDOW} lines"))
    return findings


# ---------------------------------------------------------------------------
# Tree-level rule: every option of the decode stack is set by someone

OPTION_HEADER_GLOBS = ("src/runtime/*.hpp", "src/cs/*.hpp",
                       "src/solvers/*.hpp", "src/rpca/*.hpp")
OPTION_ASSIGNMENT_DIRS = ("src", "bench", "tests", "examples", "perfbench")
_OPTION_STRUCT_RE = re.compile(
    r"\bstruct\s+(\w*(?:Options|Config)|LadderBudget|AcceptanceThresholds"
    r"|WorkerFaultInjection)\s*\{")
# A scalar member with a default initializer: `type name = value;`. Template
# types (vectors, smart pointers) are not scalars, and `==` is no initializer.
_OPTION_FIELD_RE = re.compile(
    r"^\s*[\w:]+(?:\s+[\w:]+)*\s+(\w+)\s*=(?!=)[^;]*;")


def _option_fields(f: SourceFile) -> List[Tuple[int, str, str]]:
    """(line, struct, field) of every defaulted scalar field declared at the
    top level of an option struct in `f`."""
    fields: List[Tuple[int, str, str]] = []
    text = f.stripped
    for m in _OPTION_STRUCT_RE.finditer(text):
        brace = text.index("{", m.start())
        end = _balanced_span(text, brace, "{", "}")
        body = text[brace + 1:(end - 1) if end else len(text)]
        first_line = text.count("\n", 0, brace) + 1
        depth = 0
        for offset, line in enumerate(body.split("\n")):
            if depth == 0:
                fm = _OPTION_FIELD_RE.match(line)
                if fm:
                    fields.append((first_line + offset, m.group(1),
                                   fm.group(1)))
            depth += line.count("{") - line.count("}")
    return fields


def check_unset_options(root: Path, files: dict) -> List[Finding]:
    """`files` are the linted sources; only their decode-stack headers
    declare options to check, but assignments count from the whole tree."""
    headers = [f for rel, f in sorted(files.items())
               if any(Path(rel).match(g) for g in OPTION_HEADER_GLOBS)]
    if not headers:
        return []
    corpus: List[Tuple[str, str]] = []
    for d in OPTION_ASSIGNMENT_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for ext in SOURCE_EXTS:
            for p in sorted(base.rglob(f"*{ext}")):
                if any(part.startswith("build") for part in p.parts):
                    continue
                text = p.read_text(encoding="utf-8", errors="replace")
                corpus.append((p.relative_to(root).as_posix(),
                               strip_comments_and_strings(text)))
    findings: List[Finding] = []
    for f in headers:
        for line_no, struct, name in _option_fields(f):
            assigned = re.compile(r"\." + name + r"\s*=(?!=)")
            if any(rel != f.relpath and assigned.search(text)
                   for rel, text in corpus):
                continue
            fd = f.finding_unless_allowed(
                line_no, "unset-option",
                f"option '{struct}::{name}' is never set outside its header "
                "— make it a named constexpr beside its use")
            if fd:
                findings.append(fd)
    return findings


# ---------------------------------------------------------------------------
# Tree-level rule: DESIGN.md's lock table matches the declared mutexes

DESIGN_DOC = "DESIGN.md"
DESIGN_LOCKS_HEADING = "## 7."
_DESIGN_MUTEX_NAME_RE = re.compile(r"(?<!\w)(\w*mu_)(?!\w)")


def _declared_mutexes(root: Path) -> List[Tuple[str, int, str]]:
    """(relpath, line, name) of every common::Mutex member under src/."""
    decls: List[Tuple[str, int, str]] = []
    base = root / "src"
    if not base.is_dir():
        return decls
    for ext in SOURCE_EXTS:
        for p in sorted(base.rglob(f"*{ext}")):
            rel = p.relative_to(root).as_posix()
            if (any(part.startswith("build") for part in p.parts)
                    or rel in MUTEX_CONTRACT_EXEMPT):
                continue
            text = strip_comments_and_strings(
                p.read_text(encoding="utf-8", errors="replace"))
            for idx, line in enumerate(text.splitlines(), start=1):
                m = _WRAPPED_MUTEX_MEMBER_RE.search(line)
                if m:
                    decls.append((rel, idx, m.group(1)))
    return decls


def check_design_locks(root: Path, files: dict,
                       partial: bool = False) -> List[Finding]:
    """Declarations come from the whole src/ tree; a partial lint reports
    only findings in its own files, never the DESIGN.md side."""
    design = root / DESIGN_DOC
    if not design.is_file():
        return []
    lines = design.read_text(encoding="utf-8", errors="replace").splitlines()
    start = next((i for i, ln in enumerate(lines)
                  if ln.startswith(DESIGN_LOCKS_HEADING)), None)
    if start is None:
        return [] if partial else [Finding(
            DESIGN_DOC, 1, "design-locks",
            f"no '{DESIGN_LOCKS_HEADING}' concurrency section to hold the "
            "lock table")]
    documented: dict = {}  # name -> first DESIGN.md line naming it
    for i in range(start, len(lines)):
        if i > start and lines[i].startswith("## "):
            break
        for m in _DESIGN_MUTEX_NAME_RE.finditer(lines[i]):
            documented.setdefault(m.group(1), i + 1)

    findings: List[Finding] = []
    decls = _declared_mutexes(root)
    for rel, line_no, name in decls:
        f = files.get(rel)
        if f is None or name in documented:
            continue
        fd = f.finding_unless_allowed(
            line_no, "design-locks",
            f"mutex '{name}' is not named in {DESIGN_DOC} §7 — add it to "
            "the lock table with what it guards")
        if fd:
            findings.append(fd)
    if not partial:
        declared = {name for _, _, name in decls}
        for name, line_no in sorted(documented.items(), key=lambda kv: kv[1]):
            if name not in declared:
                findings.append(Finding(
                    DESIGN_DOC, line_no, "design-locks",
                    f"{DESIGN_DOC} §7 names '{name}', but no common::Mutex "
                    "member of that name is declared under src/"))
    return findings


# ---------------------------------------------------------------------------
# Driver


def collect_files(root: Path, only: Optional[Sequence[str]] = None
                  ) -> List[SourceFile]:
    paths: List[Path] = []
    if only:
        paths = [root / p for p in only]
    else:
        for d in SOURCE_DIRS:
            base = root / d
            if not base.is_dir():
                continue
            for ext in SOURCE_EXTS:
                paths.extend(sorted(base.rglob(f"*{ext}")))
        for d in CMAKE_DIRS:
            base = root / d
            if base.is_dir():
                paths.extend(sorted(base.rglob("CMakeLists.txt")))
                paths.extend(sorted(base.rglob("*.cmake")))
    files: List[SourceFile] = []
    for p in paths:
        if any(part.startswith("build") for part in p.parts):
            continue
        try:
            text = p.read_text(encoding="utf-8", errors="replace")
        except OSError as e:
            print(f"flexcs-lint: cannot read {p}: {e}", file=sys.stderr)
            continue
        rel = p.relative_to(root).as_posix()
        stripped = (strip_cmake_comments(text) if is_cmake(rel)
                    else strip_comments_and_strings(text))
        files.append(SourceFile(rel, text, stripped))
    return files


def lint_tree(root: Path, only: Optional[Sequence[str]] = None
              ) -> List[Finding]:
    files = collect_files(root, only)
    findings: List[Finding] = []
    sources = [f for f in files if not is_cmake(f.relpath)]
    for f in files:
        if is_cmake(f.relpath):
            findings.extend(check_build_flags(f))
            continue
        for rule in FILE_RULES:
            findings.extend(rule(f))
    findings.extend(check_entry_points(root, {f.relpath: f for f in sources},
                                       partial=only is not None))
    findings.extend(check_unset_options(root,
                                        {f.relpath: f for f in sources}))
    findings.extend(check_design_locks(root, {f.relpath: f for f in sources},
                                       partial=only is not None))
    return sorted(findings)


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="repository root to lint")
    ap.add_argument("files", nargs="*",
                    help="optional root-relative files (default: whole tree)")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"flexcs-lint: no such directory: {root}", file=sys.stderr)
        return 2
    findings = lint_tree(root, args.files or None)
    for fd in findings:
        print(fd)
    if findings:
        print(f"flexcs-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("flexcs-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
