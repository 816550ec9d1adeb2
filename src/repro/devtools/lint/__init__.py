"""repro-lint: AST-based invariant checks for this repo's conventions.

The test suite proves the code *works*; these checkers prove the code
keeps the promises that make it safe to grow — pickle stays out of the
library, ``_lock`` holders actually hold their lock, async planes
never block the loop, swallowed exceptions are counted, metrics follow
the naming contract, and the job codec stays bounds-checked (README
"Static analysis").

Run it as ``python -m repro.devtools.lint [paths...]``.  The framework
is dependency-free (stdlib ``ast`` only) so it runs anywhere the repo
does.
"""

from repro import _reexport

_reexport(__name__, {
    "repro.devtools.lint.checkers": "ALL_CHECKERS",
    "repro.devtools.lint.framework": "lint_paths",
})
