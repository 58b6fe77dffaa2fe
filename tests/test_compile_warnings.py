"""Every library module compiles with warnings as errors, so a warning
at compile time (an invalid string escape is a DeprecationWarning
today, a SyntaxWarning and then an error on newer Pythons) cannot land
in any module."""

import pathlib
import warnings

PKG = pathlib.Path(__file__).resolve().parent.parent / "rdfa_ray"


def test_sources_compile_with_warnings_as_errors():
    sources = sorted(PKG.rglob("*.py"))
    assert sources
    bad = []
    for path in sources:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(path.read_text(encoding="utf-8"), str(path), "exec")
            except (SyntaxError, Warning) as e:
                bad.append("%s: %s" % (path.relative_to(PKG.parent), e))
    assert bad == []
