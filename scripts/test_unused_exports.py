#!/usr/bin/env python3
"""Tests for scripts/unused_exports.py on a fixture tree.

Each case writes a tiny lib/ (plus the units that use it) under a
temporary directory, runs the script with --root on it and checks which
exports it lists and its exit status.

Usage: python3 scripts/test_unused_exports.py
"""

import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "unused_exports.py")

# lib/alpha/widget.mli is the unit Alpha.Widget; each case names one of
# its exports from another unit.
WIDGET_MLI = """\
val unused : int
val qualified : int
val aliased : int
val opened : int
val let_opened : int
val cited : int
(** Not a use: {!cited}, and the string below, only name it. *)

module Cost : sig
  val x : int
end
"""

WIDGET_ML = """\
let unused = 0
let qualified = 1
let aliased = 2
let opened = 3
let let_opened = 4
let cited = 5
module Cost = struct let x = 6 end
"""


def script(files):
    """Write [files] (path -> text) under a fresh root, run the script
    there and return the finished process."""
    with tempfile.TemporaryDirectory() as root:
        for path, text in files.items():
            full = os.path.join(root, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w") as fh:
                fh.write(text)
        return subprocess.run(
            [sys.executable, SCRIPT, "--root", root],
            capture_output=True,
            text=True,
        )


def run(files):
    """(exit status, set of listed export paths) of the script on [files]."""
    proc = script(files)
    listed = set()
    for line in proc.stdout.splitlines():
        if line.startswith("lib/"):
            listed.add(line.rsplit(": ", 1)[1])
    return proc.returncode, listed


def widget_with(user):
    return {
        "lib/alpha/widget.mli": WIDGET_MLI,
        "lib/alpha/widget.ml": WIDGET_ML,
        "bin/main.ml": user,
    }


class UnusedExports(unittest.TestCase):
    def test_unused_val_is_listed(self):
        code, listed = run(widget_with("let () = ()\n"))
        self.assertIn("Alpha.Widget.unused", listed)
        self.assertEqual(code, 1)

    def test_qualified_use(self):
        _, listed = run(widget_with("let y = Alpha.Widget.qualified\n"))
        self.assertNotIn("Alpha.Widget.qualified", listed)

    def test_module_alias_use(self):
        _, listed = run(
            widget_with("module W = Alpha.Widget\nlet y = W.aliased\n")
        )
        self.assertNotIn("Alpha.Widget.aliased", listed)

    def test_open_and_let_open_use(self):
        _, listed = run(
            widget_with(
                "open Alpha.Widget\nlet y = opened\n"
                "let z = let open Alpha in Widget.let_opened\n"
            )
        )
        self.assertNotIn("Alpha.Widget.opened", listed)
        self.assertNotIn("Alpha.Widget.let_opened", listed)

    def test_submodule_use(self):
        _, listed = run(widget_with("let y = Alpha.Widget.Cost.x\n"))
        self.assertNotIn("Alpha.Widget.Cost.x", listed)

    def test_doc_comment_or_string_is_not_a_use(self):
        _, listed = run(
            widget_with(
                "(** See {!Alpha.Widget.cited}. *)\n"
                'let s = "Alpha.Widget.cited"\n'
            )
        )
        self.assertIn("Alpha.Widget.cited", listed)

    def test_deriving_uses_the_printer_and_equality(self):
        files = {
            "lib/alpha/rate.mli": "type t = float\nval pp : Format.formatter -> t -> unit\n"
            "val equal : t -> t -> bool\nval compare : t -> t -> int\n",
            "lib/alpha/rate.ml": "type t = float\nlet pp = Format.pp_print_float\n"
            "let equal = Float.equal\nlet compare = Float.compare\n",
            "bin/main.ml": "type r = { rate : Alpha.Rate.t } [@@deriving eq, show]\n",
        }
        _, listed = run(files)
        self.assertEqual(listed, {"Alpha.Rate.compare"})

    def test_exit_zero_when_nothing_is_listed(self):
        files = {
            "lib/alpha/one.mli": "val x : int\n",
            "lib/alpha/one.ml": "let x = 1\n",
            "bin/main.ml": "let y = Alpha.One.x\n",
        }
        code, listed = run(files)
        self.assertEqual((code, listed), (0, set()))

    def test_char_literal_in_comment_opens_no_string(self):
        # ('"') in a comment is a character literal, as OCaml lexes it:
        # the use after the comment still counts.
        code, listed = run(
            widget_with("(* escape ('\"') first *)\nlet y = Alpha.Widget.qualified\n")
        )
        self.assertNotIn("Alpha.Widget.qualified", listed)

    def test_test_only_exports_are_counted_not_listed(self):
        files = {
            "lib/alpha/one.mli": "val x : int\nval y : int\nval z : int\n",
            "lib/alpha/one.ml": "let x = 1\nlet y = 2\nlet z = 3\n",
            "bin/main.ml": "let a = Alpha.One.x + Alpha.One.z\n",
            "test/test_one.ml": "let b = Alpha.One.y + Alpha.One.z\n",
            "bench/main.ml": "let c = Alpha.One.y\n",
        }
        proc = script(files)
        self.assertEqual(proc.returncode, 0)
        self.assertEqual(
            proc.stdout.splitlines(),
            [
                "0 unused exports",
                "1 exports used only by test/ and bench/ (informational)",
            ],
        )


if __name__ == "__main__":
    unittest.main()
