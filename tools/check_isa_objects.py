#!/usr/bin/env python3
"""Object-level guard for the folded DCT kernel's ISA variants.

    check_isa_objects.py --nm NM --objdump OBJDUMP
                         --baseline OBJ... --avx2 OBJ --entry SYMBOL

flexcs_dsp compiles src/dsp/fold_kernel.cpp twice, once with -mavx2, and
picks the copy at run time. That is only safe while two things hold, which
this script checks on the built objects:

  (a) no baseline object of flexcs_dsp contains an AVX instruction: a %ymm
      or %zmm operand, or a VEX/EVEX-encoded mnemonic (`vaddpd %xmm…`,
      `vzeroupper`: every AVX mnemonic starts with `v`, whatever its
      register width), so nothing outside the AVX2 copy runs AVX code on a
      pre-AVX2 host;
  (b) the AVX2 object defines its entry point, no other global symbol and
      no weak symbol (nm type W or V). A weak definition (an inline or
      template function) may be the copy the linker keeps for every caller
      in the binary, which would then die with SIGILL on a pre-AVX2 host.

Object lists may also be passed as one ';'-separated argument (CMake's
$<TARGET_OBJECTS:...>). Runs as the ctest dsp.isa_objects. Exit status
0 = both checks pass, 1 = a check failed, 2 = usage or tool error.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from typing import List, Optional, Sequence

_WIDE_REGISTER_RE = re.compile(r"%[yz]mm\d+")
# An `objdump -d` instruction line: address, colon, then the mnemonic (raw
# bytes may sit between them unless --no-show-raw-insn, and a `{vex}` or
# `{evex}` pseudo-prefix before it).
_MNEMONIC_RE = re.compile(r"^\s*[0-9a-fA-F]+:\s+(?:(?:[0-9a-fA-F]{2}\s)+\s*)?"
                          r"(?:\{[a-z0-9]+\}\s+)?([a-z][a-z0-9.]*)")
# Mnemonics that start with `v` but are not VEX/EVEX SIMD: segment checks and
# the VMX/SVM virtualisation instructions.
_NON_VEX_V_RE = re.compile(
    r"^(?:verr|verw|vm(?:call|clear|func|launch|load|mcall|ptrld|ptrst|read|"
    r"resume|run|save|write|xoff|xon))$")
# `nm -C` line: optional value, one type letter, then the (demangled) name.
_NM_LINE_RE = re.compile(r"^(?:[0-9a-fA-F]+\s+)?(\S)\s+(.*)$")
# Defined symbols visible outside the object: every uppercase type but U
# (undefined), plus GNU unique (u) and indirect functions (i).
_GLOBAL_TYPES = set("ABCDGRSTVW") | {"u", "i"}


def _split(paths: Sequence[str]) -> List[str]:
    return [p for arg in paths for p in arg.split(";") if p]


def _run(cmd: List[str]) -> str:
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)}: {done.stderr.strip()}")
    return done.stdout


def is_avx_instruction(line: str) -> bool:
    """True for an objdump -d instruction line that needs AVX: a ymm/zmm
    operand or a VEX/EVEX-encoded mnemonic."""
    if _WIDE_REGISTER_RE.search(line):
        return True
    m = _MNEMONIC_RE.match(line)
    return bool(m) and m.group(1).startswith("v") and not _NON_VEX_V_RE.match(
        m.group(1))


def avx_lines(disassembly: str) -> List[str]:
    """Instruction lines of an objdump -d listing that need AVX."""
    return [ln.strip() for ln in disassembly.splitlines()
            if is_avx_instruction(ln)]


def symbol_violations(nm_listing: str, entry: str) -> List[str]:
    """Weak definitions, global definitions other than `entry`, and a
    missing `entry`."""
    bad: List[str] = []
    has_entry = False
    for line in nm_listing.splitlines():
        m = _NM_LINE_RE.match(line.strip())
        if not m:
            continue
        kind, name = m.group(1), m.group(2)
        if kind in "WV":
            bad.append(f"weak definition {kind} {name}")
        elif kind in _GLOBAL_TYPES:
            if name == entry:
                has_entry = True
            else:
                bad.append(f"global definition {kind} {name}")
    if not has_entry:
        bad.append(f"entry point {entry} is not defined")
    return bad


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nm", required=True)
    ap.add_argument("--objdump", required=True)
    ap.add_argument("--baseline", nargs="+", required=True)
    ap.add_argument("--avx2", required=True)
    ap.add_argument("--entry", required=True,
                    help="demangled name of the AVX2 object's entry point")
    args = ap.parse_args(argv)

    failures: List[str] = []
    try:
        for obj in _split(args.baseline):
            avx = avx_lines(
                _run([args.objdump, "-d", "--no-show-raw-insn", obj]))
            for ln in avx[:5]:
                failures.append(f"{obj}: baseline object uses AVX: {ln}")
            if len(avx) > 5:
                failures.append(f"{obj}: ... {len(avx) - 5} more")
        for obj in _split([args.avx2]):
            for v in symbol_violations(_run([args.nm, "-C", obj]),
                                       args.entry):
                failures.append(f"{obj}: {v}")
    except (OSError, RuntimeError) as e:
        print(f"check_isa_objects: {e}", file=sys.stderr)
        return 2

    for f in failures:
        print(f)
    if failures:
        print(f"check_isa_objects: {len(failures)} problem(s)", file=sys.stderr)
        return 1
    print("check_isa_objects: baseline objects use no AVX instruction; the "
          f"AVX2 object exports only {args.entry}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
