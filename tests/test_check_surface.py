"""CI gate: the public-surface audit (``scripts/check_surface.py``),
run on this tree and on a planted fake tree."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_check_surface():
    spec = importlib.util.spec_from_file_location(
        "check_surface", REPO_ROOT / "scripts" / "check_surface.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


def fake_tree(root):
    """A package with one planted case of each kind the audit fails on,
    next to exempt and reached look-alikes."""
    write(root, "src/repro/__init__.py", '"""Top."""\n')
    write(root, "src/repro/pkg/__init__.py", '''\
        """Package."""

        from .mod import (
            Registered, helper, only_tested, used, allowed_hook)

        __all__ = ["Registered", "helper", "only_tested", "used",
                   "allowed_hook"]
        ''')
    write(root, "src/repro/pkg/mod.py", '''\
        """Module."""


        def register(cls):
            return cls


        @register
        class Registered:
            """Reached through its registry."""

            def __repr__(self):
                return "Registered()"


        def helper():
            """Called below, so reached."""
            return 1


        def used():
            return helper() + _private()


        def _private():
            return 2


        def only_tested():
            """An export only tests reach."""
            return 3


        def allowed_hook():
            """Test isolation hook."""


        def never_named():
            """Nothing anywhere calls or names this."""
        ''')
    write(root, "scripts/run.py", "from repro.pkg import used\nused()\n")
    write(root, "tests/test_pkg.py", '''\
        from repro.pkg import allowed_hook, only_tested


        def test_it():
            allowed_hook()
            assert only_tested() == 3
        ''')


class TestSurfaceAudit:
    def test_tree_is_clean(self):
        assert load_check_surface().audit() == []

    def test_script_exits_zero(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_surface.py")],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_planted_cases_are_each_caught(self, tmp_path):
        check_surface = load_check_surface()
        fake_tree(tmp_path)
        allowlist = {
            "repro.pkg.allowed_hook": ("handy", "not a reason"),
            "repro.pkg.used": ("api-helper", "reached after all"),
            "repro.pkg.gone": ("reference", "no longer exported"),
        }
        problems = check_surface.audit(tmp_path, allowlist)
        text = "\n".join(problems)
        # (a) an export only tests reach
        assert "repro.pkg.only_tested: exported, but no file" in text
        # (b) a function nothing names
        assert "never_named is never called" in text
        # (c) allowlist entries for a reached and a gone name, and one
        # giving no known reason
        assert "repro.pkg.used: allowlisted, but scripts/run.py" in text
        assert "repro.pkg.gone: allowlisted, but no package" in text
        assert "allowlist reason 'handy' is not one of" in text
        assert len(problems) == 5, problems

    def test_exempt_and_allowlisted_cases_pass(self, tmp_path):
        check_surface = load_check_surface()
        fake_tree(tmp_path)
        (tmp_path / "src/repro/pkg/mod.py").write_text(
            (tmp_path / "src/repro/pkg/mod.py").read_text().replace(
                "def never_named", "@register\ndef never_named"))
        allowlist = {
            "repro.pkg.allowed_hook": ("reset-hook", "isolation"),
            "repro.pkg.only_tested": ("api-helper", "reads used()"),
        }
        assert check_surface.audit(tmp_path, allowlist) == []
