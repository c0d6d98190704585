"""Coroutine-lifetime rules.

dangling-frame               (ported from lint_tasks.py, PR 1)
member-read-after-await      (new; the PR 5 rebind use-after-free class)
ref-capture-across-suspension(new; [&] lambdas whose frame outlives the
                              captures' owners)
lock-across-await            (new; a guard held across a suspension)
"""

import re

from ..scopes import LAZY_AWAITABLE_HEADS
from . import (collect_local_names, collect_param_names,
               enclosing_brace_scope, is_msg_internal, is_test_path,
               iter_statements, local_decl_name, statement_end_after)

# ---------------------------------------------------------------------------
# dangling-frame — a NON-coroutine returning a lazy sim::Task (or a
# HostAdapter::Access awaitable, equally lazy) built from its own locals.
# The frame dies before the operation runs; every reference/span argument
# dangles. This bit twice (DoorbellSender::Ring, the RPC reply path), both
# found only under ASan. Forwarding *parameters* is fine (the caller owns
# those); only body locals count.


def _returns_task(fn):
    return any(t.is_id(*LAZY_AWAITABLE_HEADS) for t in fn.return_tokens)


def check_dangling_frame(ctx):
    tokens = ctx.tokens
    for fn in ctx.model.functions:
        if fn.is_coroutine or not _returns_task(fn):
            continue
        locals_declared = set()
        for s, e in iter_statements(tokens, fn.body_start + 1, fn.body_end):
            name = local_decl_name(tokens, s, e)
            if name:
                locals_declared.add(name)
            if not tokens[s].is_id("return"):
                continue
            expr = tokens[s + 1:e]
            if not any(t.is_punct("(") for t in expr):
                continue  # returning a variable/default, not building one
            used = sorted({t.text for t in expr
                           if t.is_id() and t.text in locals_declared})
            if used:
                ctx.report(
                    tokens[s].line, "dangling-frame",
                    "non-coroutine returns a Task/Access built from "
                    "local(s) %s; the frame dies before the operation runs "
                    "— make this a coroutine (co_return co_await ...)"
                    % ", ".join(used))


# ---------------------------------------------------------------------------
# member-read-after-await — inside a member coroutine, `this` (and every
# trailing-underscore member) may be freed while the frame is suspended
# on a wire op: rebind/failover destroys the owning object with the call
# in flight (the PR 5 ForwardedMmioPath/DoorbellSender UAF, found by a
# full ASan chaos soak). The sanctioned fix is frame pinning: copy what
# the continuation needs into locals BEFORE the co_await
# (`sim::EventLoop& loop = loop_;`) and never touch members after it.
#
# Scope of the rule (false negatives over noise):
#   * only awaits that cross the wire count (`Call`/`Recv` in the
#     awaited expression) — local primitives (Event::Wait, Delay) are
#     woken by owners whose lifetime already bounds the frame;
#   * coroutines taking a StopToken& are exempt: the supervised-loop
#     protocol stops them before their owner is torn down;
#   * src/msg/ internals are exempt: the transport owns the
#     drain-before-free protocol (retired clients/channels are parked
#     until quiescent — PR 5) that makes its member access safe.

_RISKY_CALLEES = ("Call", "Recv")


def _await_is_risky(tokens, await_idx, stmt_limit):
    k = await_idx + 1
    while k < stmt_limit - 1:
        t = tokens[k]
        if t.is_punct(";"):
            return False
        if t.is_id(*_RISKY_CALLEES) and tokens[k + 1].is_punct("("):
            return True
        k += 1
    return False


def _takes_stop_token(tokens, fn):
    for k in range(fn.params_start + 1, fn.params_end):
        if tokens[k].is_id("StopToken"):
            return True
    return False


def check_member_read_after_await(ctx):
    if is_test_path(ctx.path) or is_msg_internal(ctx.path):
        return
    tokens = ctx.tokens
    for fn in ctx.model.functions:
        if not fn.is_coroutine or fn.class_name is None:
            continue
        if _takes_stop_token(tokens, fn):
            continue
        first_after = None
        for sp in fn.suspend_points:
            stmt_end = statement_end_after(ctx.model, sp, fn.body_end)
            if _await_is_risky(tokens, sp, stmt_end):
                first_after = stmt_end
                break
        if first_after is None:
            continue
        non_members = collect_param_names(tokens, fn.params_start,
                                          fn.params_end)
        non_members |= collect_local_names(tokens, fn.body_start,
                                           fn.body_end)
        known_members = ctx.index.members_of(fn.class_name)
        flagged_lines = set()
        k = first_after
        while k < fn.body_end:
            t = tokens[k]
            hit = None
            if t.is_id("this"):
                hit = "this"
            elif (t.is_id() and t.text.endswith("_")
                  and len(t.text) > 1
                  and t.text not in non_members
                  and (not known_members or t.text in known_members)):
                hit = t.text
            if hit is not None and t.line not in flagged_lines:
                flagged_lines.add(t.line)
                ctx.report(
                    t.line, "member-read-after-await",
                    "member '%s' of %s is accessed after a co_await on a "
                    "wire op; rebind/failover can destroy the object while "
                    "this frame is suspended (the PR 5 UAF) — pin what the "
                    "continuation needs into locals before the await "
                    "(e.g. `sim::EventLoop& loop = loop_;`) and use only "
                    "frame-owned state afterwards"
                    % (hit, fn.qualified_name))
            k += 1


# ---------------------------------------------------------------------------
# ref-capture-across-suspension — a lambda that captures by reference
# AND is (or produces) a coroutine. Its frame suspends and resumes after
# the creating scope may have unwound, so every `[&]` capture is a
# use-after-scope waiting for a scheduler interleaving. Migration
# handlers and Spawned probe lambdas are the shapes that have bitten
# (the chaos_soak handler PR 5 fixed). Fix: capture by value, or pass
# state as coroutine parameters (parameters are copied into the frame).


def check_ref_capture_across_suspension(ctx):
    if is_test_path(ctx.path):
        return
    for lam in ctx.model.lambdas:
        if not lam.has_ref_capture:
            continue
        if not (lam.is_coroutine or lam.returns_task):
            continue
        ctx.report(
            lam.line, "ref-capture-across-suspension",
            "coroutine lambda captures by reference; the frame outlives "
            "the capturing scope across suspensions — capture by value or "
            "pass the state as parameters (parameters are copied into the "
            "coroutine frame)")


# ---------------------------------------------------------------------------
# lock-across-await — a scoped guard alive across a co_await. The
# single-threaded simulator's awaits interleave arbitrary other frames;
# holding any exclusive resource across one serializes or deadlocks them
# (and in host code it blocks a whole thread). The turn-queue guard in
# RpcClient is deliberately named TurnGuard, not *LockGuard, precisely
# because holding a turn across awaits is its contract — the rule keys
# on lock-ish type names only.

_GUARD_TYPE_RE = re.compile(
    r"^(?:lock_guard|unique_lock|scoped_lock|shared_lock)$"
    r"|(?:Lock|Mutex)Guard$|^MutexLock$")


def _guard_decl_type(tokens, s, e):
    """Guard type name if tokens[s:e] declare a lock guard local."""
    name = local_decl_name(tokens, s, e)
    if name is None:
        return None, None
    for k in range(s, e):
        t = tokens[k]
        if t.is_id() and _GUARD_TYPE_RE.search(t.text):
            return t.text, name
        if t.is_punct("=", "(", "{"):
            break
    return None, None


def check_lock_across_await(ctx):
    tokens = ctx.tokens
    for fn in list(ctx.model.functions) + list(ctx.model.lambdas):
        if not fn.is_coroutine:
            continue
        for s, e in iter_statements(tokens, fn.body_start + 1, fn.body_end):
            guard_type, guard_name = _guard_decl_type(tokens, s, e)
            if guard_type is None:
                continue
            _, scope_end = enclosing_brace_scope(ctx.model, s)
            if scope_end is None:
                scope_end = fn.body_end
            released_at = None
            for k in range(e, scope_end):
                t = tokens[k]
                if t.is_id(guard_name) and k + 2 < scope_end \
                        and tokens[k + 1].is_punct(".") \
                        and tokens[k + 2].is_id("unlock", "Unlock",
                                                "release", "Release"):
                    released_at = k
                    break
            check_until = released_at if released_at is not None \
                else scope_end
            for sp in fn.suspend_points:
                if e < sp < check_until:
                    ctx.report(
                        tokens[sp].line, "lock-across-await",
                        "guard '%s' (%s) is alive across this co_await; "
                        "every frame the scheduler interleaves here "
                        "contends on or deadlocks against it — release "
                        "before suspending, or narrow the guard scope to "
                        "exclude the await" % (guard_name, guard_type))
                    break
            # only the first offending await per guard; further awaits in
            # the same scope are the same fix.


RULES = [
    ("dangling-frame", check_dangling_frame),
    ("member-read-after-await", check_member_read_after_await),
    ("ref-capture-across-suspension", check_ref_capture_across_suspension),
    ("lock-across-await", check_lock_across_await),
]
