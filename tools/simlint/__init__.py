"""simlint — token-stream, cross-file static analyzer for this repo.

A multi-pass analyzer purpose-built for the simulator codebase's three
recurring bug families:

  * coroutine lifetime (frames outliving the objects they read),
  * ordering/supervision (detached loops, undeadlined waits, raw ring
    sends that bypass the submission front),
  * overload contracts (kOverloaded is terminal: never retried, never
    counted by circuit breakers).

It replaced the line-regex engine of the earlier ``lint_tasks.py`` with:

  1. a real C++ token stream (``lexer``) — comments, string/char
     literals, raw strings, preprocessor directives, line splices and
     ``#if 0`` blocks are handled structurally, which kills the
     regex engine's known false-positive classes (rule text inside a
     string literal, statements split across continuation lines);
  2. a brace/scope tracker (``scopes``) — function and lambda bodies,
     enclosing classes, coroutine detection, suspension points;
  3. a repo-wide symbol index (``symbols``) — which functions return
     ``sim::Task``/``HostAdapter::Access``/``Status``/``Result``, which
     take a ``StopToken&``, which are coroutines — built once from the
     headers under the configured roots and shared by every rule.

Run it as ``python3 tools/simlint [paths...]`` or via the CMake ``lint``
target. ``--self-test`` replays the seeded bug corpus under
``tools/simlint/selftest/`` and fails unless every rule fires exactly
where its ``// simlint-expect: <rule>`` annotations say (and nowhere
else).

Suppression: append ``// simlint: allow(<rule>)`` to the offending line.
"""

__version__ = "1.0.0"

from .findings import Finding  # noqa: F401  (re-export)
