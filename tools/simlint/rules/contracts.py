"""Result- and status-contract rules.

discarded-result         (ported from lint_tasks.py, PR 3)
overloaded-never-retried (new; the PR 6 overload contract)
lease-check-after-await  (new; the PR 9 fencing contract)
"""

import re

from . import (call_chain_at, is_test_path, iter_statements,
               statement_end_after)

# ---------------------------------------------------------------------------
# discarded-result — a bare statement calling a repo function that
# returns sim::Task/HostAdapter::Access/Status/Result. A dropped Task or
# Access never runs (both start only when awaited); a dropped Status
# swallows an error.
# [[nodiscard]] catches most of this at compile time; the lint also
# covers macro-heavy paths and files gated out of the build.
#
# Token-stream shape: a whole statement of exactly
#     chain ( args ) ;
# where chain = id ((. | -> | ::) id)*. Anything consuming the value
# (`x = ...`, `return ...`, `co_await ...`, `(void) ...`, a comparison)
# breaks the shape at token level, so the regex engine's continuation-
# line workarounds are structurally unnecessary here.


def check_discarded_result(ctx):
    tokens = ctx.tokens
    must_use = ctx.must_use_names()
    n = len(tokens)
    for s, e in iter_statements(tokens, 0, n):
        callee, open_paren = call_chain_at(tokens, s, e)
        if callee is None or callee not in must_use:
            continue
        close = ctx.model.paren_match.get(open_paren)
        if close is None or close + 1 != e:
            continue  # trailing operators: the value is consumed
        ctx.report(
            tokens[s].line, "discarded-result",
            "result of %s() (Task/Access/Status/Result) is discarded; assign, "
            "await, check, or cast to (void)" % callee)


# ---------------------------------------------------------------------------
# overloaded-never-retried — the PR 6 contract: kOverloaded is an
# explicit push-back from a live peer. It is TERMINAL for the attempt:
# never retried (retrying feeds the overload) and never counted by
# circuit breakers (the peer is alive; opening amputates capacity
# exactly when demand peaks). Two shapes are flagged:
#
#   (a) a retryability/breaker predicate (Is*Retryable, ShouldRetry,
#       IsBreakerFailure, ...) whose `return` expression matches
#       kOverloaded positively (`== kOverloaded`);
#   (b) an `if`/`while` whose condition matches kOverloaded positively
#       and whose controlled block reacts with retry machinery
#       (RecordFailure / BackoffFor / Retry* / a bare `continue` in a
#       retry loop).

_PREDICATE_NAME_RE = re.compile(
    r"^(?:Is|Should|Can).*(?:Retry|Retriable|Retryable|BreakerFailure)"
    r"|^ShouldRetry$")

_RETRY_REACTION_IDS = ("RecordFailure", "BackoffFor", "SpendRetryToken")
_RETRY_REACTION_PREFIX = "Retry"


def _positive_overload_match(tokens, start, end):
    """Index of a `kOverloaded` that is compared with `==` (not `!=`)
    within tokens[start:end], else None. `IsOverloaded(...)` used as a
    truthy condition also counts."""
    for k in range(start, end):
        t = tokens[k]
        if t.is_id("IsOverloaded"):
            # `!IsOverloaded(...)` is a negative guard.
            if k > start and tokens[k - 1].is_punct("!"):
                continue
            return k
        if not t.is_id("kOverloaded"):
            continue
        # Nearest comparison operator before the (possibly qualified)
        # kOverloaded decides polarity.
        j = k - 1
        while j >= start and (tokens[j].is_punct("::")
                              or tokens[j].is_id()):
            j -= 1
        if j >= start and tokens[j].is_punct("=="):
            return k
        # `kOverloaded == code` spelling:
        if k + 1 < end and tokens[k + 1].is_punct("=="):
            return k
    return None


def _block_after_condition(ctx, close_paren, limit):
    """(start, end) token range controlled by an if/while whose condition
    closes at ``close_paren``: a brace block or a single statement."""
    tokens = ctx.tokens
    k = close_paren + 1
    if k >= limit:
        return k, k
    if tokens[k].is_punct("{"):
        close = ctx.model.brace_match.get(k)
        return k + 1, close if close is not None else limit
    # Single statement: up to the next `;`.
    j = k
    depth = 0
    while j < limit:
        t = tokens[j]
        if t.is_punct("("):
            depth += 1
        elif t.is_punct(")"):
            depth -= 1
        elif depth == 0 and t.is_punct(";"):
            return k, j + 1
        j += 1
    return k, limit


def _reacts_with_retry(tokens, start, end):
    for k in range(start, end):
        t = tokens[k]
        if t.is_id(*_RETRY_REACTION_IDS):
            return t
        if t.is_id("continue"):
            return t
        if t.is_id() and t.text.startswith(_RETRY_REACTION_PREFIX) \
                and k + 1 < end and tokens[k + 1].is_punct("("):
            return t
    return None


def check_overloaded_never_retried(ctx):
    tokens = ctx.tokens
    model = ctx.model

    # Shape (a): retry predicates returning a positive kOverloaded match.
    for fn in model.functions:
        if not _PREDICATE_NAME_RE.search(fn.name):
            continue
        for s, e in iter_statements(tokens, fn.body_start + 1, fn.body_end):
            if not tokens[s].is_id("return"):
                continue
            hit = _positive_overload_match(tokens, s + 1, e)
            if hit is not None:
                ctx.report(
                    tokens[hit].line, "overloaded-never-retried",
                    "retry/breaker predicate %s() treats kOverloaded as "
                    "retryable; kOverloaded is an explicit push-back from "
                    "a live peer — retrying it feeds the overload and "
                    "counting it opens breakers under pure load (PR 6 "
                    "contract: only kDeadlineExceeded/kUnavailable are "
                    "transport failures)" % fn.name)

    # Shape (b): `if (st == kOverloaded) { <retry reaction> }`.
    n = len(tokens)
    for i, t in enumerate(tokens):
        if not t.is_id("if", "while"):
            continue
        if i + 1 >= n or not tokens[i + 1].is_punct("("):
            continue
        close = model.paren_match.get(i + 1)
        if close is None:
            continue
        hit = _positive_overload_match(tokens, i + 2, close)
        if hit is None:
            continue
        blk_start, blk_end = _block_after_condition(ctx, close, n)
        reaction = _reacts_with_retry(tokens, blk_start, blk_end)
        if reaction is None:
            continue
        ctx.report(
            tokens[hit].line, "overloaded-never-retried",
            "this branch matches kOverloaded and reacts with retry "
            "machinery (%s); kOverloaded is terminal for the attempt — "
            "surface it to the caller (shed/backpressure), never retry "
            "or count it against a breaker" % reaction.text)


# ---------------------------------------------------------------------------
# lease-check-after-await — the PR 9 fencing contract: an epoch (lease)
# check is only a fencing proof for code that runs BEFORE the next
# suspension point. The moment a coroutine parks — a drain delay, a
# breaker backoff, a nested RPC — the orchestrator may condemn this
# host, bump the epoch, and re-grant the device elsewhere; when the
# frame resumes, the stale check admits a split-brain write to the BAR.
#
# Shape flagged: a coroutine that validates an epoch (`... epoch ... ==`
# or `!=`), then suspends, then applies `MmioWrite`/`MmioRead` with no
# re-check between the suspension and the apply. The co_await that
# performs the apply itself does not count as an intervening suspension
# (the agent opens its no-suspension inflight window exactly there, and
# the fence push drains that window before acking — see
# Agent::HandleForwarding). The fix is the production shape: re-check
# epoch and self-fence state after the last unrelated await, immediately
# before touching the device.

_APPLY_CALLEES = ("MmioWrite", "MmioRead")
_EPOCH_CMP_WINDOW = 6


def _epoch_check_indices(tokens, start, end):
    """Token indices of `==`/`!=` comparisons involving an epoch-ish
    identifier within a few tokens on either side."""
    hits = []
    for k in range(start, end):
        if not tokens[k].is_punct("==", "!="):
            continue
        lo = max(start, k - _EPOCH_CMP_WINDOW)
        hi = min(end, k + _EPOCH_CMP_WINDOW + 1)
        for j in range(lo, hi):
            t = tokens[j]
            if t.is_id() and "epoch" in t.text.lower():
                hits.append(k)
                break
    return hits


def _suspension_cannot_reach(model, fn, sp, apply_idx):
    """True when the suspension at ``sp`` sits in a brace block that
    closes before ``apply_idx`` and returns out of the coroutine after
    the suspension — a mutually-exclusive branch (the write arm of
    HandleForwarding vs its read-path apply): control that took the
    suspension exits the frame instead of falling through to the
    apply. Loose on purpose (a conditional co_return also matches):
    false negatives over noise."""
    tokens = model.tokens
    for o, c in model.brace_match.items():
        if not (fn.body_start < o < sp < c < apply_idx):
            continue
        for k in range(sp + 1, c):
            if tokens[k].is_id("co_return", "return"):
                return True
    return False


def check_lease_check_after_await(ctx):
    if is_test_path(ctx.path):
        return
    tokens = ctx.tokens
    model = ctx.model
    flagged_lines = set()  # per-file: lambda bodies nest inside functions
    for fn in list(model.functions) + list(model.lambdas):
        if not fn.is_coroutine:
            continue
        checks = _epoch_check_indices(tokens, fn.body_start + 1, fn.body_end)
        if not checks:
            continue
        for a in range(fn.body_start + 1, fn.body_end - 1):
            t = tokens[a]
            if not (t.is_id(*_APPLY_CALLEES) and tokens[a + 1].is_punct("(")):
                continue
            prior = [c for c in checks if c < a]
            if not prior:
                continue
            last_check = max(prior)
            stale = None
            for sp in fn.suspend_points:
                if not (last_check < sp < a):
                    continue
                if statement_end_after(model, sp, fn.body_end) > a:
                    continue  # the apply's own co_await
                if _suspension_cannot_reach(model, fn, sp, a):
                    continue  # terminal sibling branch, e.g. write vs read
                stale = sp
                break
            if stale is None or t.line in flagged_lines:
                continue
            flagged_lines.add(t.line)
            ctx.report(
                t.line, "lease-check-after-await",
                "%s() is applied after a suspension point that follows "
                "the last epoch check; the lease can be fenced and "
                "re-granted while this frame is parked, so the stale "
                "check admits a split-brain write — re-check the epoch "
                "(and self-fence state) after the last co_await, "
                "immediately before touching the device" % t.text)


RULES = [
    ("discarded-result", check_discarded_result),
    ("overloaded-never-retried", check_overloaded_never_retried),
    ("lease-check-after-await", check_lease_check_after_await),
]
