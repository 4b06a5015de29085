#!/usr/bin/env python3
"""Selftest for check_isa_objects on synthetic objdump and nm text: proves
that ymm/zmm operands and VEX/EVEX mnemonics on xmm registers (`vaddpd
%xmm…`, `vzeroupper`) fail the baseline check while SSE2 code, labels and
non-SIMD `v…` mnemonics pass, and that the symbol check catches weak and
extra global definitions. Runs as the ctest `isa_objects.selftest` and
standalone (`python3 tools/test_check_isa_objects.py`)."""

from __future__ import annotations

import io
import os
import stat
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_isa_objects as cio  # noqa: E402

ENTRY = "flexcs::dsp::fold_avx2::fold_kernel(flexcs::dsp::FoldJob const&)"

SSE2_LISTING = """
obj.o:     file format elf64-x86-64


Disassembly of section .text:

0000000000000000 <_ZN6flexcs3dsp13fold_baseline4vmovEv>:
       0:\tpush   %rbp
       1:\tmovupd (%rdi),%xmm0
       5:\taddpd  %xmm1,%xmm0
       9:\tmulsd  %xmm2,%xmm3
       d:\tcall   12 <_ZN6flexcs3dsp4vaddEv>
      12:\tverw   %ax
      15:\tret
"""


def listing(*lines: str) -> str:
    return SSE2_LISTING + "".join(
        f"      {0x20 + i:x}:\t{ln}\n" for i, ln in enumerate(lines))


def write_tool(directory: str, name: str, output: str) -> str:
    """A fake nm/objdump that prints `output` whatever its arguments."""
    text = Path(directory) / f"{name}.txt"
    text.write_text(output)
    tool = Path(directory) / name
    tool.write_text(f"#!/bin/sh\ncat '{text}'\n")
    tool.chmod(tool.stat().st_mode | stat.S_IXUSR)
    return str(tool)


def run_cli(objdump_text: str, nm_text: str) -> int:
    with tempfile.TemporaryDirectory() as td:
        objdump = write_tool(td, "objdump", objdump_text)
        nm = write_tool(td, "nm", nm_text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cio.main(["--nm", nm, "--objdump", objdump,
                             "--baseline", os.path.join(td, "base.o"),
                             "--avx2", os.path.join(td, "avx2.o"),
                             "--entry", ENTRY])


GOOD_NM = f"0000000000000000 T {ENTRY}\n                 U memcpy\n"


class AvxLinesTest(unittest.TestCase):
    def test_sse2_code_labels_and_non_simd_v_mnemonics_pass(self):
        self.assertEqual(cio.avx_lines(SSE2_LISTING), [])

    def test_wide_registers_fail(self):
        for ln in ["vaddpd %ymm1,%ymm0,%ymm0", "vmovupd %zmm0,(%rdi)"]:
            self.assertEqual(len(cio.avx_lines(listing(ln))), 1, ln)

    def test_vex_encoded_xmm_code_fails(self):
        for ln in ["vaddpd %xmm1,%xmm0,%xmm0", "vmovsd (%rdi),%xmm0",
                   "vbroadcastsd %xmm0,%xmm1", "vzeroupper",
                   "vfmadd231pd %xmm2,%xmm1,%xmm0",
                   "{vex} vpdpbusd %xmm2,%xmm1,%xmm0"]:
            self.assertEqual(len(cio.avx_lines(listing(ln))), 1, ln)

    def test_raw_instruction_bytes_are_skipped(self):
        raw = "      40:\tc5 f9 58 c1          \tvaddpd %xmm1,%xmm0,%xmm0\n"
        self.assertEqual(len(cio.avx_lines(SSE2_LISTING + raw)), 1)
        sse = "      44:\t66 0f 58 c1          \taddpd  %xmm1,%xmm0\n"
        self.assertEqual(cio.avx_lines(SSE2_LISTING + sse), [])

    def test_virtualisation_mnemonics_pass(self):
        self.assertEqual(cio.avx_lines(listing("vmcall", "vmread %rax,%rbx")),
                         [])


class SymbolTest(unittest.TestCase):
    def test_entry_only_passes(self):
        self.assertEqual(cio.symbol_violations(GOOD_NM, ENTRY), [])

    def test_weak_extra_and_missing_entry_fail(self):
        self.assertEqual(len(cio.symbol_violations(
            GOOD_NM + "0000000000000100 W inline_helper()\n", ENTRY)), 1)
        self.assertEqual(len(cio.symbol_violations(
            GOOD_NM + "0000000000000100 T other()\n", ENTRY)), 1)
        self.assertEqual(cio.symbol_violations("", ENTRY),
                         [f"entry point {ENTRY} is not defined"])


class CliTest(unittest.TestCase):
    def test_clean_objects_exit_zero(self):
        self.assertEqual(run_cli(SSE2_LISTING, GOOD_NM), 0)

    def test_vex_xmm_in_a_baseline_object_exits_one(self):
        self.assertEqual(run_cli(listing("vaddpd %xmm1,%xmm0,%xmm0"),
                                 GOOD_NM), 1)

    def test_missing_tool_exits_two(self):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = cio.main(["--nm", "/nonexistent/nm", "--objdump",
                           "/nonexistent/objdump", "--baseline", "a.o",
                           "--avx2", "b.o", "--entry", ENTRY])
        self.assertEqual(rc, 2)


if __name__ == "__main__":
    unittest.main()
