#!/usr/bin/env python3
"""Selftest for flexcs_lint: proves every rule fires on a known-bad fixture
and stays quiet on the equivalent clean code. Runs as the ctest
`lint.selftest` and standalone (`python3 tools/test_flexcs_lint.py`)."""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import flexcs_lint  # noqa: E402


def lint_fixture(tree: dict) -> list:
    """Writes {relpath: content} into a temp dir and lints it."""
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        for rel, content in tree.items():
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(content)
        return flexcs_lint.lint_tree(root)


def rules_fired(findings: list) -> set:
    return {f.rule for f in findings}


class StripTest(unittest.TestCase):
    def test_comments_and_strings_blanked(self):
        src = 'int x; // new delete\n/* std::rand */ const char* s = "new";\n'
        out = flexcs_lint.strip_comments_and_strings(src)
        self.assertNotIn("new", out)
        self.assertNotIn("std::rand", out)
        self.assertEqual(src.count("\n"), out.count("\n"))

    def test_code_preserved_in_place(self):
        src = "a == 1.5; // tail\n"
        out = flexcs_lint.strip_comments_and_strings(src)
        self.assertTrue(out.startswith("a == 1.5; "))


class PragmaOnceTest(unittest.TestCase):
    def test_missing_pragma_fires(self):
        f = lint_fixture({"src/cs/bad.hpp": "int f();\n"})
        self.assertIn("pragma-once", rules_fired(f))

    def test_present_pragma_clean(self):
        f = lint_fixture({"src/cs/good.hpp": "// doc\n#pragma once\nint f();\n"})
        self.assertNotIn("pragma-once", rules_fired(f))

    def test_cpp_files_exempt(self):
        f = lint_fixture({"src/cs/impl.cpp": "int f() { return 1; }\n"})
        self.assertNotIn("pragma-once", rules_fired(f))


class UsingNamespaceTest(unittest.TestCase):
    def test_using_namespace_in_header_fires(self):
        f = lint_fixture(
            {"src/cs/bad.hpp": "#pragma once\nusing namespace std;\n"})
        self.assertIn("using-namespace", rules_fired(f))

    def test_using_namespace_in_cpp_allowed(self):
        f = lint_fixture({"tests/t.cpp": "using namespace flexcs;\n"})
        self.assertNotIn("using-namespace", rules_fired(f))

    def test_commented_mention_clean(self):
        f = lint_fixture(
            {"src/cs/ok.hpp": "#pragma once\n// never using namespace here\n"})
        self.assertNotIn("using-namespace", rules_fired(f))


class RawNewDeleteTest(unittest.TestCase):
    def test_raw_new_fires_outside_la(self):
        f = lint_fixture({"src/cs/bad.cpp": "int* p = new int(3);\n"})
        self.assertIn("raw-new-delete", rules_fired(f))

    def test_raw_delete_fires_outside_la(self):
        f = lint_fixture({"src/cs/bad.cpp": "void g(int* p) { delete p; }\n"})
        self.assertIn("raw-new-delete", rules_fired(f))

    def test_la_module_exempt(self):
        f = lint_fixture({"src/la/pool.cpp": "int* p = new int(3);\n"})
        self.assertNotIn("raw-new-delete", rules_fired(f))

    def test_deleted_member_function_clean(self):
        src = "#pragma once\nstruct S { S(const S&) = delete;\n  void* operator new(unsigned long) = delete; };\n"
        f = lint_fixture({"src/cs/s.hpp": src})
        self.assertNotIn("raw-new-delete", rules_fired(f))

    def test_suppression_marker(self):
        src = "int* p = new int(3);  // flexcs-lint: allow(raw-new-delete)\n"
        f = lint_fixture({"src/cs/ok.cpp": src})
        self.assertNotIn("raw-new-delete", rules_fired(f))


class RngDisciplineTest(unittest.TestCase):
    def test_std_rand_fires(self):
        f = lint_fixture({"src/cs/bad.cpp": "int r = std::rand();\n"})
        self.assertIn("rng-discipline", rules_fired(f))

    def test_mt19937_fires(self):
        # Unseeded or seeded alike: all randomness must flow through
        # flexcs::Rng, so any direct std::mt19937 is out of contract.
        f = lint_fixture({"src/dsp/bad.cpp": "std::mt19937 gen;\n"})
        self.assertIn("rng-discipline", rules_fired(f))

    def test_random_device_fires(self):
        f = lint_fixture({"tests/bad.cpp": "std::random_device rd;\n"})
        self.assertIn("rng-discipline", rules_fired(f))

    def test_rng_module_exempt(self):
        f = lint_fixture({"src/common/rng.cpp": "// std::mt19937 notes\nint x;\n"})
        self.assertNotIn("rng-discipline", rules_fired(f))


class FloatEqualityTest(unittest.TestCase):
    def test_nonzero_literal_fires(self):
        f = lint_fixture({"src/cs/bad.cpp": "if (x == 1.5) {}\n"})
        self.assertIn("float-equality", rules_fired(f))

    def test_reversed_operands_fire(self):
        f = lint_fixture({"src/cs/bad.cpp": "if (0.5f != x) {}\n"})
        self.assertIn("float-equality", rules_fired(f))

    def test_exponent_literal_fires(self):
        f = lint_fixture({"src/cs/bad.cpp": "bool b = y != 1e-6;\n"})
        self.assertIn("float-equality", rules_fired(f))

    def test_exact_zero_allowed(self):
        f = lint_fixture({"src/cs/ok.cpp": "if (x == 0.0) {}\nif (0.0f != y) {}\n"})
        self.assertNotIn("float-equality", rules_fired(f))

    def test_relational_not_confused(self):
        f = lint_fixture({"src/cs/ok.cpp": "if (x <= 1.5 || x >= 2.5) {}\n"})
        self.assertNotIn("float-equality", rules_fired(f))

    def test_suppression_marker(self):
        src = "if (x == 1.5) {}  // flexcs-lint: allow(float-equality)\n"
        f = lint_fixture({"src/cs/ok.cpp": src})
        self.assertNotIn("float-equality", rules_fired(f))


class ThreadingTest(unittest.TestCase):
    def test_thread_outside_runtime_fires(self):
        f = lint_fixture({"src/cs/bad.cpp": "std::thread t([] {});\n"})
        self.assertIn("threading", rules_fired(f))

    def test_jthread_outside_runtime_fires(self):
        f = lint_fixture({"bench/bad.cpp": "std::jthread t([] {});\n"})
        self.assertIn("threading", rules_fired(f))

    def test_thread_inside_runtime_clean(self):
        f = lint_fixture({"src/runtime/ok.cpp": "std::thread t([] {});\n"})
        self.assertNotIn("threading", rules_fired(f))

    def test_this_thread_not_confused(self):
        f = lint_fixture(
            {"src/cs/ok.cpp": "std::this_thread::yield();\n"})
        self.assertNotIn("threading", rules_fired(f))

    def test_detach_fires_everywhere_even_in_runtime(self):
        f = lint_fixture({"src/runtime/bad.cpp": "worker.detach();\n"})
        self.assertIn("threading", rules_fired(f))

    def test_std_mutex_member_fires_even_with_comment(self):
        # The old rule accepted a "guards ..." comment; the contract upgrade
        # demands the annotated wrapper type so Clang TSA can verify it.
        src = ("#pragma once\n"
               "#include <mutex>\n"
               "class S {\n"
               "  // mu_ guards the queue and counters below.\n"
               "  mutable std::mutex mu_;\n"
               "};\n")
        f = lint_fixture({"src/runtime/bad.hpp": src})
        self.assertIn("threading", rules_fired(f))

    def test_wrapped_mutex_without_contract_fires(self):
        src = ("#pragma once\n"
               "#include \"common/annotations.hpp\"\n"
               "class S {\n"
               "  common::Mutex mu_;\n"
               "  int count_ = 0;\n"
               "};\n")
        f = lint_fixture({"src/runtime/bad.hpp": src})
        self.assertIn("threading", rules_fired(f))

    def test_wrapped_mutex_with_guarded_by_clean(self):
        src = ("#pragma once\n"
               "#include \"common/annotations.hpp\"\n"
               "class S {\n"
               "  mutable common::Mutex mu_;\n"
               "  int count_ FLEXCS_GUARDED_BY(mu_) = 0;\n"
               "};\n")
        f = lint_fixture({"src/runtime/ok.hpp": src})
        self.assertNotIn("threading", rules_fired(f))

    def test_wrapped_mutex_with_requires_clean(self):
        src = ("#pragma once\n"
               "#include \"common/annotations.hpp\"\n"
               "class S {\n"
               "  void step() FLEXCS_REQUIRES(mu_);\n"
               "  flexcs::common::Mutex mu_;\n"
               "};\n")
        f = lint_fixture({"src/runtime/ok.hpp": src})
        self.assertNotIn("threading", rules_fired(f))

    def test_excludes_alone_is_not_a_contract(self):
        src = ("#pragma once\n"
               "#include \"common/annotations.hpp\"\n"
               "class S {\n"
               "  void poll() FLEXCS_EXCLUDES(mu_);\n"
               "  common::Mutex mu_;\n"
               "};\n")
        f = lint_fixture({"src/runtime/bad.hpp": src})
        self.assertIn("threading", rules_fired(f))

    def test_mutex_in_cpp_not_required_to_have_contract(self):
        f = lint_fixture({"src/runtime/ok.cpp": "static std::mutex mu;\n"})
        self.assertNotIn("threading", rules_fired(f))

    def test_annotation_header_itself_exempt(self):
        src = ("#pragma once\n"
               "class Mutex {\n"
               "  std::mutex mu_;\n"
               "};\n")
        f = lint_fixture({"src/common/annotations.hpp": src})
        self.assertNotIn("threading", rules_fired(f))

    def test_mutex_contract_suppression_marker(self):
        src = ("#pragma once\n"
               "class S {\n"
               "  std::mutex mu_;  // flexcs-lint: allow(threading)\n"
               "};\n")
        f = lint_fixture({"src/runtime/ok.hpp": src})
        self.assertNotIn("threading", rules_fired(f))

    def test_suppression_marker(self):
        src = "std::thread t([] {});  // flexcs-lint: allow(threading)\n"
        f = lint_fixture({"tests/ok.cpp": src})
        self.assertNotIn("threading", rules_fired(f))


class ProcessControlTest(unittest.TestCase):
    def test_fork_outside_runtime_fires(self):
        f = lint_fixture({"src/cs/bad.cpp": "pid_t p = ::fork();\n"})
        self.assertIn("threading", rules_fired(f))

    def test_kill_and_waitpid_outside_runtime_fire(self):
        src = ("void reap(pid_t p) {\n"
               "  ::kill(p, 9);\n"
               "  ::waitpid(p, nullptr, 0);\n"
               "}\n")
        f = lint_fixture({"tools/bad.cpp": src})
        fired = [x for x in f if x.rule == "threading"]
        self.assertEqual(2, len(fired), "\n".join(str(x) for x in fired))

    def test_process_control_inside_runtime_clean(self):
        src = ("void spawn() {\n"
               "  int sv[2];\n"
               "  ::socketpair(1, 1, 0, sv);\n"
               "  if (::fork() == 0) ::_Exit(0);\n"
               "}\n")
        f = lint_fixture({"src/runtime/service.cpp": src})
        self.assertNotIn("threading", rules_fired(f))

    def test_member_fork_not_confused(self):
        # Rng::fork() (deterministic stream splitting) and member calls are
        # not process control.
        src = ("Rng Rng::fork() { return Rng(next_u64()); }\n"
               "void g(Rng& base) { Rng child = base.fork(); }\n")
        f = lint_fixture({"src/common/rng.cpp": src})
        self.assertNotIn("threading", rules_fired(f))

    def test_suppression_marker(self):
        src = "pid_t p = ::fork();  // flexcs-lint: allow(threading)\n"
        f = lint_fixture({"tests/ok.cpp": src})
        self.assertNotIn("threading", rules_fired(f))


class SocketSyscallTest(unittest.TestCase):
    def test_socket_outside_runtime_fires(self):
        f = lint_fixture({"src/cs/bad.cpp": "int fd = ::socket(2, 1, 0);\n"})
        self.assertIn("threading", rules_fired(f))

    def test_bind_listen_accept_connect_outside_runtime_fire(self):
        src = ("void serve(int fd, void* a, unsigned l) {\n"
               "  ::bind(fd, a, l);\n"
               "  ::listen(fd, 8);\n"
               "  ::accept(fd, nullptr, nullptr);\n"
               "  ::connect(fd, a, l);\n"
               "}\n")
        f = lint_fixture({"tests/bad.cpp": src})
        fired = [x for x in f if x.rule == "threading"]
        self.assertEqual(4, len(fired), "\n".join(str(x) for x in fired))

    def test_socket_syscalls_inside_runtime_clean(self):
        src = ("int open_listener(void* a, unsigned l) {\n"
               "  int fd = ::socket(2, 1, 0);\n"
               "  ::bind(fd, a, l);\n"
               "  ::listen(fd, 8);\n"
               "  return ::accept(fd, nullptr, nullptr);\n"
               "}\n")
        f = lint_fixture({"src/runtime/net.cpp": src})
        self.assertNotIn("threading", rules_fired(f))

    def test_member_connect_not_confused(self):
        # Connection::connect(...) / service.connect(...) are member calls,
        # not syscalls; std::bind-style qualified names are also out of scope.
        src = ("void g(Client& c) { c.connect(); }\n"
               "void h(Peer* p) { p->connect(); }\n")
        f = lint_fixture({"src/cs/ok.cpp": src})
        self.assertNotIn("threading", rules_fired(f))

    def test_suppression_marker(self):
        src = "int fd = ::socket(2, 1, 0);  // flexcs-lint: allow(threading)\n"
        f = lint_fixture({"tests/ok.cpp": src})
        self.assertNotIn("threading", rules_fired(f))


class ByteIoSyscallTest(unittest.TestCase):
    def test_byte_io_outside_posix_io_fires_even_in_runtime(self):
        src = ("void pump(int fd, unsigned char* b, unsigned long n) {\n"
               "  ::read(fd, b, n);\n"
               "  ::write(fd, b, n);\n"
               "  ::send(fd, b, n, 0);\n"
               "  ::recv(fd, b, n, 0);\n"
               "}\n")
        f = lint_fixture({"src/runtime/service.cpp": src})
        fired = [x for x in f if x.rule == "threading"]
        self.assertEqual(4, len(fired), "\n".join(str(x) for x in fired))

    def test_posix_io_itself_clean(self):
        src = ("long get(int fd, unsigned char* b, unsigned long n) {\n"
               "  ::send(fd, b, n, 0);\n"
               "  return ::read(fd, b, n);\n"
               "}\n")
        f = lint_fixture({"src/runtime/posix_io.cpp": src})
        self.assertNotIn("threading", rules_fired(f))

    def test_member_read_not_confused(self):
        src = ("void g(Stream& s, Conn* c) { s.read(); c->send(); }\n"
               "void h(std::ofstream& o) { o.std::ofstream::write(0, 0); }\n")
        f = lint_fixture({"src/cs/ok.cpp": src})
        self.assertNotIn("threading", rules_fired(f))

    def test_suppression_marker(self):
        src = ("long n = ::read(0, nullptr, 0);"
               "  // flexcs-lint: allow(threading)\n")
        f = lint_fixture({"tests/ok.cpp": src})
        self.assertNotIn("threading", rules_fired(f))


class DeadlinePollTest(unittest.TestCase):
    POLLING = (
        "#include \"solvers/solver.hpp\"\n"
        "namespace flexcs::solvers {\n"
        "void iterate(const SolveOptions& ctrl, int max_iterations) {\n"
        "  for (int it = 0; it < max_iterations; ++it) {\n"
        "    if (ctrl.should_stop()) break;\n"
        "    // work\n"
        "  }\n"
        "}\n"
        "}\n")

    def test_polling_loop_clean(self):
        f = lint_fixture({"src/solvers/kernel.cpp": self.POLLING})
        self.assertNotIn("deadline-poll", rules_fired(f))

    def test_non_polling_loop_fires(self):
        src = self.POLLING.replace("    if (ctrl.should_stop()) break;\n", "")
        f = lint_fixture({"src/solvers/kernel.cpp": src})
        self.assertIn("deadline-poll", rules_fired(f))

    def test_deadline_member_poll_counts(self):
        src = self.POLLING.replace(
            "if (ctrl.should_stop()) break;",
            "if (ctrl.deadline.expired()) break;")
        f = lint_fixture({"src/lp/kernel.cpp": src})
        self.assertNotIn("deadline-poll", rules_fired(f))

    def test_unbounded_helper_loop_ignored(self):
        # Loops without a budget token (plain element loops) are not solver
        # iteration loops and need no poll.
        src = ("void scale(double* v, unsigned long n) {\n"
               "  for (unsigned long i = 0; i < n; ++i) v[i] *= 2.0;\n"
               "}\n")
        f = lint_fixture({"src/solvers/helper.cpp": src})
        self.assertNotIn("deadline-poll", rules_fired(f))

    def test_out_of_scope_directory_ignored(self):
        src = self.POLLING.replace("    if (ctrl.should_stop()) break;\n", "")
        f = lint_fixture({"src/fe/kernel.cpp": src})
        self.assertNotIn("deadline-poll", rules_fired(f))

    def test_suppression_marker(self):
        src = self.POLLING.replace(
            "  for (int it = 0; it < max_iterations; ++it) {\n",
            "  for (int it = 0; it < max_iterations; ++it) {"
            "  // flexcs-lint: allow(deadline-poll)\n")
        src = src.replace("    if (ctrl.should_stop()) break;\n", "")
        f = lint_fixture({"src/solvers/kernel.cpp": src})
        self.assertNotIn("deadline-poll", rules_fired(f))


class SupervisionLoopTest(unittest.TestCase):
    def test_exitless_infinite_loop_in_runtime_fires(self):
        src = ("void broker() {\n"
               "  for (;;) {\n"
               "    step();\n"
               "  }\n"
               "}\n")
        f = lint_fixture({"src/runtime/service.cpp": src})
        self.assertIn("deadline-poll", rules_fired(f))

    def test_while_true_without_exit_fires(self):
        src = ("void watch() {\n"
               "  while (true) {\n"
               "    scan();\n"
               "  }\n"
               "}\n")
        f = lint_fixture({"src/runtime/stream.cpp": src})
        self.assertIn("deadline-poll", rules_fired(f))

    def test_loop_with_break_clean(self):
        src = ("void broker() {\n"
               "  for (;;) {\n"
               "    if (done()) break;\n"
               "    step();\n"
               "  }\n"
               "}\n")
        f = lint_fixture({"src/runtime/service.cpp": src})
        self.assertNotIn("deadline-poll", rules_fired(f))

    def test_loop_with_heartbeat_poll_clean(self):
        src = ("void watch(double heartbeat_seconds) {\n"
               "  while (true) {\n"
               "    wait_for(heartbeat_seconds);\n"
               "  }\n"
               "}\n")
        f = lint_fixture({"src/runtime/stream.cpp": src})
        self.assertNotIn("deadline-poll", rules_fired(f))

    def test_bounded_runtime_loop_ignored(self):
        # Element loops in the runtime are not supervision loops.
        src = ("void fill(double* v, unsigned long n) {\n"
               "  for (unsigned long i = 0; i < n; ++i) v[i] = 0.0;\n"
               "}\n")
        f = lint_fixture({"src/runtime/shard.cpp": src})
        self.assertNotIn("deadline-poll", rules_fired(f))

    def test_infinite_loop_outside_runtime_ignored(self):
        src = ("void spin() {\n"
               "  for (;;) {\n"
               "    step();\n"
               "  }\n"
               "}\n")
        f = lint_fixture({"src/fe/sim.cpp": src})
        self.assertNotIn("deadline-poll", rules_fired(f))

    def test_suppression_marker(self):
        src = ("void broker() {\n"
               "  for (;;) {  // flexcs-lint: allow(deadline-poll)\n"
               "    step();\n"
               "  }\n"
               "}\n")
        f = lint_fixture({"src/runtime/service.cpp": src})
        self.assertNotIn("deadline-poll", rules_fired(f))


class EntryCheckTest(unittest.TestCase):
    # Mirrors the real operator-based solver surface: solve_impl takes the
    # abstract la::LinearOperator, not a dense matrix.
    UNCHECKED = (
        "#include \"solvers/omp.hpp\"\n"
        "namespace flexcs::solvers {\n"
        "SolveResult OmpSolver::solve_impl(const la::LinearOperator& a,\n"
        "                                  const la::Vector& b,\n"
        "                                  const SolveOptions& ctrl) const {\n"
        "  SolveResult r;\n"
        "  r.x = la::Vector(a.cols(), 0.0);\n"
        "  return r;\n"
        "}\n"
        "}\n")

    def test_unvalidated_entry_point_fires(self):
        f = lint_fixture({"src/solvers/omp.cpp": self.UNCHECKED})
        fired = [x for x in f if x.rule == "entry-check"
                 and x.path == "src/solvers/omp.cpp"
                 and "validate" in x.message]
        self.assertTrue(fired)

    def test_validated_entry_point_clean(self):
        src = self.UNCHECKED.replace(
            "  SolveResult r;\n",
            "  validate_solve_inputs(a, b, \"OMP\");\n  SolveResult r;\n")
        f = lint_fixture({"src/solvers/omp.cpp": src})
        fired = [x for x in f if x.rule == "entry-check"
                 and x.path == "src/solvers/omp.cpp"]
        self.assertFalse(fired)

    def test_renamed_entry_point_reported(self):
        src = self.UNCHECKED.replace("OmpSolver::solve", "OmpSolver::run")
        f = lint_fixture({"src/solvers/omp.cpp": src})
        fired = [x for x in f if x.rule == "entry-check" and "not found" in x.message]
        self.assertTrue(fired)

    def test_declaration_skipped_definition_found(self):
        # A declaration before the definition must not satisfy (or confuse)
        # the body search.
        src = ("SolveResult solve_decl(int);\n" + self.UNCHECKED)
        f = lint_fixture({"src/solvers/omp.cpp": src})
        fired = [x for x in f if x.rule == "entry-check"
                 and x.path == "src/solvers/omp.cpp"
                 and "validate" in x.message]
        self.assertTrue(fired)

    # The matrix-free operator's entry points (ctor validates the pattern,
    # apply/apply_adjoint re-check shapes) are covered by the same rule.
    OPERATOR_UNCHECKED = (
        "#include \"cs/transform_operator.hpp\"\n"
        "namespace flexcs::cs {\n"
        "SubsampledTransformOperator::SubsampledTransformOperator(\n"
        "    dsp::BasisKind basis, SamplingPattern pattern)\n"
        "    : basis_(basis), pattern_(std::move(pattern)) {}\n"
        "la::Vector SubsampledTransformOperator::apply(\n"
        "    const la::Vector& x) const {\n"
        "  return la::Vector(pattern_.m(), 0.0);\n"
        "}\n"
        "la::Vector SubsampledTransformOperator::apply_adjoint(\n"
        "    const la::Vector& y) const {\n"
        "  return la::Vector(pattern_.n(), 0.0);\n"
        "}\n"
        "}\n")

    def test_unchecked_transform_operator_fires(self):
        f = lint_fixture({"src/cs/transform_operator.cpp":
                          self.OPERATOR_UNCHECKED})
        fired = [x for x in f if x.rule == "entry-check"
                 and x.path == "src/cs/transform_operator.cpp"]
        # ctor, apply and apply_adjoint each carry their own spec.
        self.assertEqual(3, len(fired), "\n".join(str(x) for x in fired))

    def test_checked_transform_operator_clean(self):
        src = self.OPERATOR_UNCHECKED
        src = src.replace(
            "    : basis_(basis), pattern_(std::move(pattern)) {}",
            "    : basis_(basis), pattern_(std::move(pattern)) {\n"
            "  FLEXCS_CHECK(!pattern_.indices.empty(), \"empty pattern\");\n"
            "}")
        src = src.replace(
            "  return la::Vector(pattern_.m(), 0.0);",
            "  FLEXCS_CHECK(x.size() == cols(), \"shape\");\n"
            "  return la::Vector(pattern_.m(), 0.0);")
        src = src.replace(
            "  return la::Vector(pattern_.n(), 0.0);",
            "  FLEXCS_CHECK(y.size() == rows(), \"shape\");\n"
            "  return la::Vector(pattern_.n(), 0.0);")
        f = lint_fixture({"src/cs/transform_operator.cpp": src})
        fired = [x for x in f if x.rule == "entry-check"
                 and x.path == "src/cs/transform_operator.cpp"]
        self.assertFalse(fired, "\n".join(str(x) for x in fired))


class FistaEntryCheckTest(unittest.TestCase):
    # FISTA's one solve loop validates its inputs itself.
    SRC = (
        "#include \"solvers/fista.hpp\"\n"
        "namespace flexcs::solvers {\n"
        "SolveResult FistaSolver::solve_impl(const la::LinearOperator& a,\n"
        "                                    const la::Vector& b,\n"
        "                                    const SolveOptions& ctrl) const {\n"
        "  validate_solve_inputs(a, b, \"FISTA\");\n"
        "  return SolveResult{};\n"
        "}\n"
        "}\n")

    def fired(self, src):
        f = lint_fixture({"src/solvers/fista.cpp": src})
        return [x for x in f if x.rule == "entry-check"
                and x.path == "src/solvers/fista.cpp"]

    def test_validated_solve_impl_clean(self):
        fired = self.fired(self.SRC)
        self.assertFalse(fired, "\n".join(str(x) for x in fired))

    def test_unvalidated_solve_impl_fires(self):
        src = self.SRC.replace(
            "  validate_solve_inputs(a, b, \"FISTA\");\n", "")
        fired = self.fired(src)
        self.assertEqual(1, len(fired), "\n".join(str(x) for x in fired))
        self.assertIn("solve_impl", fired[0].message)


class DecoderEntryCheckTest(unittest.TestCase):
    # The decoder's one operator accessor validates the pattern shape; the
    # removed dense accessors (measurement_matrix, implicit_operator) are no
    # longer part of the contract surface.
    SRC = (
        "#include \"cs/decoder.hpp\"\n"
        "namespace flexcs::cs {\n"
        "std::shared_ptr<const SubsampledTransformOperator>\n"
        "Decoder::measurement_operator(const SamplingPattern& pattern) const {\n"
        "  FLEXCS_CHECK(pattern.rows == rows_, \"shape\");\n"
        "  return entry_for(pattern).op;\n"
        "}\n"
        "double Decoder::operator_norm(const SamplingPattern& pattern) const {\n"
        "  FLEXCS_CHECK(pattern.rows == rows_, \"shape\");\n"
        "  return 1.0;\n"
        "}\n"
        "DecodeResult Decoder::decode(const SamplingPattern& pattern,\n"
        "                             const la::Vector& y) const {\n"
        "  return decode_with(pattern, y, *solver_, opts_);\n"
        "}\n"
        "DecodeResult Decoder::decode_with(const SamplingPattern& pattern,\n"
        "                                  const la::Vector& y,\n"
        "                                  const solvers::SparseSolver& s,\n"
        "                                  const DecoderOptions& opts) const {\n"
        "  FLEXCS_CHECK(y.size() == pattern.m(), \"count\");\n"
        "  return {};\n"
        "}\n"
        "}\n")

    def fired(self, src):
        f = lint_fixture({"src/cs/decoder.cpp": src})
        return [x for x in f if x.rule == "entry-check"
                and x.path == "src/cs/decoder.cpp"]

    def test_matrix_free_decoder_surface_clean(self):
        fired = self.fired(self.SRC)
        self.assertFalse(fired, "\n".join(str(x) for x in fired))

    def test_unchecked_measurement_operator_fires(self):
        src = self.SRC.replace(
            "  FLEXCS_CHECK(pattern.rows == rows_, \"shape\");\n"
            "  return entry_for(pattern).op;\n",
            "  return entry_for(pattern).op;\n")
        fired = self.fired(src)
        self.assertEqual(1, len(fired), "\n".join(str(x) for x in fired))
        self.assertIn("measurement_operator", fired[0].message)


class ServiceEntryCheckTest(unittest.TestCase):
    # The broker validates each frame on entry to process(); one that
    # touches the frame without FLEXCS_CHECK breaks the contract.
    UNCHECKED = (
        "#include \"runtime/service.hpp\"\n"
        "namespace flexcs::runtime {\n"
        "ServiceFrameResult DecodeService::process(\n"
        "    const la::Matrix& frame,\n"
        "    const solvers::SolveOptions& ctrl) {\n"
        "  ServiceFrameResult res;\n"
        "  return res;\n"
        "}\n"
        "}\n")

    def fired(self, src):
        f = lint_fixture({"src/runtime/service.cpp": src})
        return [x for x in f if x.rule == "entry-check"
                and x.path == "src/runtime/service.cpp"
                and "process" in x.message and "validate" in x.message]

    def test_unvalidated_process_fires(self):
        self.assertTrue(self.fired(self.UNCHECKED))

    def test_validated_process_clean(self):
        src = self.UNCHECKED.replace(
            "  ServiceFrameResult res;\n",
            "  FLEXCS_CHECK(frame.rows() == grid_.rows, \"shape\");\n"
            "  ServiceFrameResult res;\n")
        fired = self.fired(src)
        self.assertFalse(fired, "\n".join(str(x) for x in fired))


class ActivityEntryCheckTest(unittest.TestCase):
    # Event-driven readout surface: the gate constructor must validate its
    # options, update must validate the frame shape, and the detector
    # accessor must bounds-check the tile index.
    UNCHECKED = (
        "#include \"runtime/activity.hpp\"\n"
        "namespace flexcs::runtime {\n"
        "ActivityGate::ActivityGate(const TileGrid& grid,\n"
        "                           ActivityGateOptions opts)\n"
        "    : grid_(grid), opts_(std::move(opts)) {\n"
        "  state_.resize(grid_.tiles());\n"
        "}\n"
        "const cs::SamplingPattern& ActivityGate::detector(\n"
        "    std::size_t tile) const {\n"
        "  return detectors_[tile];\n"
        "}\n"
        "FrameActivity ActivityGate::update(const la::Matrix& frame) {\n"
        "  FrameActivity fa;\n"
        "  return fa;\n"
        "}\n"
        "}\n")

    def test_unchecked_gate_fires(self):
        f = lint_fixture({"src/runtime/activity.cpp": self.UNCHECKED})
        fired = [x for x in f if x.rule == "entry-check"
                 and x.path == "src/runtime/activity.cpp"
                 and "validate" in x.message]
        # ctor, detector accessor, and update each carry their own spec.
        self.assertEqual(3, len(fired), "\n".join(str(x) for x in fired))

    def test_checked_gate_clean(self):
        src = self.UNCHECKED
        src = src.replace(
            "  state_.resize(grid_.tiles());\n",
            "  FLEXCS_CHECK(opts_.threshold >= 0.0, \"threshold\");\n"
            "  state_.resize(grid_.tiles());\n")
        src = src.replace(
            "  return detectors_[tile];\n",
            "  FLEXCS_CHECK(tile < detectors_.size(), \"tile\");\n"
            "  return detectors_[tile];\n")
        src = src.replace(
            "  FrameActivity fa;\n",
            "  FLEXCS_CHECK(frame.rows() == grid_.rows, \"shape\");\n"
            "  FrameActivity fa;\n")
        f = lint_fixture({"src/runtime/activity.cpp": src})
        fired = [x for x in f if x.rule == "entry-check"
                 and x.path == "src/runtime/activity.cpp"]
        self.assertFalse(fired, "\n".join(str(x) for x in fired))


class TileGridEntryCheckTest(unittest.TestCase):
    # The tile geometry (moved out of shard.cpp) keeps its contract: the
    # constructor rejects non-dividing tilings and copy_interior re-checks
    # both frame shapes before writing pixels.
    UNCHECKED = (
        "#include \"runtime/tile_grid.hpp\"\n"
        "namespace flexcs::runtime {\n"
        "TileGrid::TileGrid(std::size_t rows_in, std::size_t cols_in,\n"
        "                   std::size_t tr, std::size_t tc, std::size_t h)\n"
        "    : rows(rows_in), cols(cols_in) {\n"
        "  grid_rows = rows / tr;\n"
        "}\n"
        "void TileGrid::copy_interior(const la::Matrix& src,\n"
        "                             std::size_t tile,\n"
        "                             la::Matrix& dst) const {\n"
        "  (void)src;\n"
        "}\n"
        "}\n")

    def test_unchecked_tile_grid_fires(self):
        f = lint_fixture({"src/runtime/tile_grid.cpp": self.UNCHECKED})
        fired = [x for x in f if x.rule == "entry-check"
                 and x.path == "src/runtime/tile_grid.cpp"
                 and "validate" in x.message]
        self.assertEqual(2, len(fired), "\n".join(str(x) for x in fired))

    def test_checked_tile_grid_clean(self):
        src = self.UNCHECKED
        src = src.replace(
            "  grid_rows = rows / tr;\n",
            "  FLEXCS_CHECK(rows % tr == 0, \"divisibility\");\n"
            "  grid_rows = rows / tr;\n")
        src = src.replace(
            "  (void)src;\n",
            "  FLEXCS_CHECK(tile < tiles(), \"tile\");\n"
            "  (void)src;\n")
        f = lint_fixture({"src/runtime/tile_grid.cpp": src})
        fired = [x for x in f if x.rule == "entry-check"
                 and x.path == "src/runtime/tile_grid.cpp"]
        self.assertFalse(fired, "\n".join(str(x) for x in fired))


class ResolveFractionEntryCheckTest(unittest.TestCase):
    # The per-frame fraction override resolver is what keeps event-driven
    # adaptive sampling inside (0,1]; it must reject out-of-range overrides
    # rather than forward them into pattern generation.
    UNCHECKED = (
        "#include \"cs/sampling.hpp\"\n"
        "namespace flexcs::cs {\n"
        "double resolve_fraction(double request, double fallback) {\n"
        "  return request == 0.0 ? fallback : request;\n"
        "}\n"
        "}\n")

    def test_unchecked_resolver_fires(self):
        f = lint_fixture({"src/cs/sampling.cpp": self.UNCHECKED})
        fired = [x for x in f if x.rule == "entry-check"
                 and x.path == "src/cs/sampling.cpp"
                 and "resolve_fraction" in x.message
                 and "validate" in x.message]
        self.assertTrue(fired)

    def test_checked_resolver_clean(self):
        src = self.UNCHECKED.replace(
            "  return request == 0.0 ? fallback : request;\n",
            "  FLEXCS_CHECK(request >= 0.0 && request <= 1.0, \"range\");\n"
            "  return request == 0.0 ? fallback : request;\n")
        f = lint_fixture({"src/cs/sampling.cpp": src})
        fired = [x for x in f if x.rule == "entry-check"
                 and x.path == "src/cs/sampling.cpp"
                 and "resolve_fraction" in x.message]
        self.assertFalse(fired, "\n".join(str(x) for x in fired))


class BuildFlagsTest(unittest.TestCase):
    BANNED = ("-march=native", "-march=x86-64-v3", "-mtune=native", "-mfma",
              "-ffast-math", "-Ofast", "-ffp-contract=fast",
              "-mavx", "-mavx2", "-mavx512f", "-mavx512vl", "-msse3",
              "-mssse3", "-msse4", "-msse4.1", "-msse4.2", "-mbmi",
              "-mbmi2", "-mf16c")

    def test_each_banned_flag_fires(self):
        for flag in self.BANNED:
            f = lint_fixture({"src/dsp/CMakeLists.txt":
                              f"target_compile_options(x PRIVATE {flag})\n"})
            fired = [x for x in f if x.rule == "build-flags"]
            self.assertEqual(1, len(fired), flag)
            self.assertEqual(1, fired[0].line, flag)

    def test_quoted_flag_and_cmake_module_fire(self):
        f = lint_fixture({"src/cs/flags.cmake":
                          'set(FLAGS "-O2 -ffast-math")\n'})
        self.assertIn("build-flags", rules_fired(f))

    def test_openmp_simd_clean(self):
        f = lint_fixture({"src/dsp/CMakeLists.txt":
                          "target_compile_options(flexcs_dsp PRIVATE "
                          "-fopenmp-simd)\n"})
        self.assertNotIn("build-flags", rules_fired(f))

    def test_comment_mention_clean(self):
        f = lint_fixture({"src/dsp/CMakeLists.txt":
                          "# never -ffast-math here\nadd_library(x a.cpp)\n"})
        self.assertNotIn("build-flags", rules_fired(f))

    def test_suppression_marker(self):
        f = lint_fixture({"src/dsp/CMakeLists.txt":
                          "target_compile_options(x PRIVATE -mfma)  "
                          "# flexcs-lint: allow(build-flags)\n"})
        self.assertNotIn("build-flags", rules_fired(f))

    def test_isa_flag_allow_marker(self):
        f = lint_fixture({"src/dsp/CMakeLists.txt":
                          "target_compile_options(k PRIVATE -mavx2)  "
                          "# flexcs-lint: allow(build-flags)\n"
                          "target_compile_options(x PRIVATE -mavx2)\n"})
        fired = [x for x in f if x.rule == "build-flags"]
        self.assertEqual([2], [x.line for x in fired])

    def test_baseline_m_flags_clean(self):
        f = lint_fixture({"src/dsp/CMakeLists.txt":
                          "target_compile_options(x PRIVATE -msse2 "
                          "-mno-red-zone -mtune=generic)\n"})
        self.assertNotIn("build-flags", rules_fired(f))

    def test_target_attributes_fire(self):
        for decl in ('__attribute__((target("avx2"))) void k();',
                     '__attribute__ ((__target__("avx2"))) void k();',
                     '__attribute__((target_clones("avx2", "default"))) '
                     'void k();',
                     '[[gnu::target("avx2")]] void k();'):
            f = lint_fixture({"src/dsp/k.cpp": "int a;\n" + decl + "\n"})
            fired = [x for x in f if x.rule == "build-flags"]
            self.assertEqual([2], [x.line for x in fired], decl)

    def test_target_attribute_allow_marker_and_scope(self):
        decl = '[[gnu::target("avx2")]] void k();'
        allowed = decl + "  // flexcs-lint: allow(build-flags)\n"
        self.assertNotIn("build-flags", rules_fired(
            lint_fixture({"src/dsp/k.cpp": allowed})))
        self.assertNotIn("build-flags", rules_fired(
            lint_fixture({"tests/k.cpp": decl + "\n"})))
        self.assertNotIn("build-flags", rules_fired(
            lint_fixture({"src/dsp/k.cpp":
                          "// never __attribute__((target(\"avx2\")))\n"
                          "int target_count = 0;\n"})))

    def test_outside_src_not_checked(self):
        f = lint_fixture({"bench/CMakeLists.txt":
                          "target_compile_options(b PRIVATE -march=native)\n"})
        self.assertNotIn("build-flags", rules_fired(f))

    def test_cmake_files_skip_cpp_rules(self):
        f = lint_fixture({"src/cs/CMakeLists.txt":
                          "# new delete std::rand\nadd_library(x a.cpp)\n"})
        self.assertEqual([], [x for x in f if x.path.endswith(".txt")])


class UnsetOptionTest(unittest.TestCase):
    HEADER = ("#pragma once\n"
              "struct FooOptions {\n"
              "  double gain = 2.0;  // tuned by callers\n"
              "  std::vector<int> lanes;\n"
              "  Nested nested;\n"
              "};\n")

    def test_unset_field_fires(self):
        f = lint_fixture({"src/runtime/foo.hpp": self.HEADER})
        unset = [x for x in f if x.rule == "unset-option"]
        self.assertEqual(1, len(unset), "\n".join(str(x) for x in f))
        self.assertEqual(("src/runtime/foo.hpp", 3),
                         (unset[0].path, unset[0].line))
        self.assertIn("FooOptions::gain", unset[0].message)

    def test_self_assignment_in_own_header_still_fires(self):
        header = self.HEADER + "inline void f(FooOptions& o) { o.gain = 1; }\n"
        f = lint_fixture({"src/runtime/foo.hpp": header})
        self.assertIn("unset-option", rules_fired(f))

    def test_assigned_field_clean(self):
        for d in ("tests", "perfbench"):
            f = lint_fixture({
                "src/runtime/foo.hpp": self.HEADER,
                f"{d}/use.cpp": "void f(FooOptions& o) { o.gain = 3.0; }\n"})
            self.assertNotIn("unset-option", rules_fired(f), d)

    def test_comparison_is_not_an_assignment(self):
        f = lint_fixture({
            "src/runtime/foo.hpp": self.HEADER,
            "tests/use.cpp": "bool f(FooOptions& o) { return o.gain == 3; }\n"})
        self.assertIn("unset-option", rules_fired(f))

    def test_allow_marker_clean(self):
        header = self.HEADER.replace(
            "// tuned by callers", "// flexcs-lint: allow(unset-option)")
        f = lint_fixture({"src/runtime/foo.hpp": header})
        self.assertNotIn("unset-option", rules_fired(f))

    def test_other_structs_and_dirs_not_checked(self):
        f = lint_fixture({
            "src/runtime/foo.hpp": "#pragma once\n"
                                   "struct FrameControl { int cap = -1; };\n",
            "src/cs/bar.hpp": "#pragma once\n"
                              "struct BarOptions { int cap = -1; };\n"})
        self.assertNotIn("unset-option", rules_fired(f))


class DesignLocksTest(unittest.TestCase):
    HEADER = ("#pragma once\n"
              "class Server {\n"
              "  common::Mutex mu_;\n"
              "  int queue_ FLEXCS_GUARDED_BY(mu_) = 0;\n"
              "};\n")
    DESIGN = ("# Design\n"
              "## 7. Concurrency contract\n"
              "| Mutex | Guards |\n"
              "|---|---|\n"
              "| `mu_` | `queue_` |\n"
              "## 8. Next\n")

    def design_findings(self, tree: dict) -> list:
        return [x for x in lint_fixture(tree) if x.rule == "design-locks"]

    def test_documented_mutex_clean(self):
        f = self.design_findings({"src/runtime/server.hpp": self.HEADER,
                                  "DESIGN.md": self.DESIGN})
        self.assertEqual([], f, "\n".join(str(x) for x in f))

    def test_undocumented_mutex_fires_at_its_declaration(self):
        header = self.HEADER.replace(
            "};", "  common::Mutex side_mu_;\n"
                  "  int n_ FLEXCS_GUARDED_BY(side_mu_) = 0;\n};")
        f = self.design_findings({"src/runtime/server.hpp": header,
                                  "DESIGN.md": self.DESIGN})
        self.assertEqual([("src/runtime/server.hpp", 5)],
                         [(x.path, x.line) for x in f])
        self.assertIn("side_mu_", f[0].message)

    def test_mutex_in_a_cpp_file_counts(self):
        f = self.design_findings({
            "src/runtime/server.hpp": self.HEADER,
            "src/cs/cache.cpp": "static common::Mutex table_mu_;\n",
            "DESIGN.md": self.DESIGN})
        self.assertEqual(["src/cs/cache.cpp"], [x.path for x in f])

    def test_stale_table_entry_fires_on_design(self):
        design = self.DESIGN.replace(
            "## 8.", "| `gone_mu_` | nothing any more |\n## 8.")
        f = self.design_findings({"src/runtime/server.hpp": self.HEADER,
                                  "DESIGN.md": design})
        self.assertEqual([("DESIGN.md", 6)], [(x.path, x.line) for x in f])
        self.assertIn("gone_mu_", f[0].message)

    def test_names_outside_section_7_do_not_count(self):
        design = self.DESIGN + "Elsewhere: `side_mu_`, `old_mu_`.\n"
        header = self.HEADER.replace("};", "  common::Mutex side_mu_;\n};")
        f = self.design_findings({"src/runtime/server.hpp": header,
                                  "DESIGN.md": design})
        self.assertEqual(["src/runtime/server.hpp"], [x.path for x in f])

    def test_mutex_outside_src_not_checked(self):
        f = self.design_findings({
            "tests/t.cpp": "common::Mutex test_mu_;\n",
            "DESIGN.md": self.DESIGN.replace("`mu_`", "`none`")})
        self.assertEqual([], f, "\n".join(str(x) for x in f))

    def test_allow_marker_clean(self):
        header = self.HEADER.replace(
            "Mutex mu_;", "Mutex mu_;  // flexcs-lint: allow(design-locks)")
        f = self.design_findings({"src/runtime/server.hpp": header,
                                  "DESIGN.md": "## 7. Concurrency\n"})
        self.assertEqual([], f, "\n".join(str(x) for x in f))

    def test_no_design_doc_skips_the_rule(self):
        f = self.design_findings({"src/runtime/server.hpp": self.HEADER})
        self.assertEqual([], f)

    def test_partial_lint_skips_the_design_side(self):
        design = self.DESIGN.replace(
            "## 8.", "| `gone_mu_` | nothing any more |\n## 8.")
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            (root / "src/runtime").mkdir(parents=True)
            (root / "src/runtime/server.hpp").write_text(self.HEADER)
            (root / "src/runtime/other.cpp").write_text("int x;\n")
            (root / "DESIGN.md").write_text(design)
            findings = flexcs_lint.lint_tree(
                root, only=["src/runtime/other.cpp"])
            self.assertEqual([], findings,
                             "\n".join(str(x) for x in findings))


class PartialLintTest(unittest.TestCase):
    def test_single_file_mode_skips_other_entry_points(self):
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            (root / "src/cs").mkdir(parents=True)
            (root / "src/solvers").mkdir(parents=True)
            (root / "src/cs/defects.cpp").write_text("int x;\n")
            findings = flexcs_lint.lint_tree(root, only=["src/cs/defects.cpp"])
            self.assertEqual([], findings,
                             "\n".join(str(x) for x in findings))


class RealTreeTest(unittest.TestCase):
    def test_repository_is_clean(self):
        root = Path(__file__).resolve().parent.parent
        if not (root / "src").is_dir():
            self.skipTest("not running inside the repo")
        findings = flexcs_lint.lint_tree(root)
        self.assertEqual([], findings,
                         "\n".join(str(x) for x in findings))


if __name__ == "__main__":
    unittest.main(verbosity=2)
