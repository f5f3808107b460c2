#!/usr/bin/env python3
"""Checks the lockstep counters of a CASTED_TRACE export.

Usage:
  scripts/check_lockstep_counters.py TRACE DRIVER [--lanes N]
                                     [--sites-per-lane K] [--max-timing N]

TRACE is the JSON a traced binary wrote, DRIVER the fault driver whose
counters are checked ("campaign" or "exhaustive").  For every trace:

  * the export carries trace events, the git_describe metadata and the
    driver's per-worker counters;
  * fault.<DRIVER>.lockstep.lanes, .lane_ops and .lane_steps exist;
  * every lane is decided or falls back exactly once;
  * the lane ops split by lane end (lane_ops.<end>) sum to lane_ops, and
    so do the lane ops split by the opcode of their step
    (lane_ops.op.<mnemonic>); no lane step (a golden op that evaluated
    some lane) is without one;
  * every window ran one golden stream, and one more for each stream that
    deferred plans to a later one: windows <= streams <= windows +
    deferred;
  * the golden streams ran instructions, and the part of them before each
    stream's first flip (prefix_insns) is at most all of them;
  * per fallback reason, the re-runs' outcome counters sum to the reason's
    fallbacks;
  * no timing check both stopped at its safe point (timing_safe) and timed
    out, so the two together are at most the timing fallbacks;
  * only a lane whose cycle bound went live (an access left golden's
    line) falls back as timing: fallback.timing <= diverged <= lanes.

--lanes N demands exactly N lanes; --sites-per-lane K demands
K * lanes == fault.<DRIVER>.sites (an audit that enumerates every site
once per injection mode, and only one mode as lanes, passes K = 2);
--max-timing N demands at most N timing fallbacks.

Exits non-zero, naming the failed check, when any check fails.
"""

import argparse
import json
import sys

DECISIONS = ('detected', 'exception', 'halt', 'reconverged')
REASONS = ('control', 'timing')
ENDS = DECISIONS + REASONS
OUTCOMES = ('benign', 'detected', 'exception', 'data-corrupt', 'timeout')


def check(trace, driver, lanes_expected, sites_per_lane, max_timing):
    counters = trace['counters']
    prefix = f'fault.{driver}.lockstep.'

    assert trace['traceEvents'], 'no trace events recorded'
    assert 'git_describe' in trace['metadata'], 'missing run metadata'
    assert any(k.startswith(f'fault.{driver}.worker') for k in counters), (
        'missing worker counters')
    assert prefix + 'lanes' in counters, 'missing lockstep counters'
    assert prefix + 'lane_ops' in counters, 'missing lane_ops counter'
    assert prefix + 'lane_steps' in counters, 'missing lane_steps counter'

    lanes = counters[prefix + 'lanes']
    if lanes_expected is not None:
        assert lanes == lanes_expected, (lanes, lanes_expected)
    if sites_per_lane is not None:
        sites = counters[f'fault.{driver}.sites']
        assert sites_per_lane * lanes == sites, (lanes, sites)

    decided = sum(counters.get(prefix + 'decided.' + end, 0)
                  for end in DECISIONS)
    fallback = sum(counters.get(prefix + 'fallback.' + reason, 0)
                   for reason in REASONS)
    assert decided + fallback == lanes, (decided, fallback, lanes)

    lane_ops = counters[prefix + 'lane_ops']
    by_end = sum(counters.get(prefix + 'lane_ops.' + end, 0) for end in ENDS)
    assert by_end == lane_ops, (by_end, lane_ops)
    by_opcode = sum(value for name, value in counters.items()
                    if name.startswith(prefix + 'lane_ops.op.'))
    assert by_opcode == lane_ops, ('by opcode', by_opcode, lane_ops)
    lane_steps = counters[prefix + 'lane_steps']
    assert lane_steps <= lane_ops, (lane_steps, lane_ops)

    for name in ('windows', 'streams', 'deferred'):
        assert prefix + name in counters, f'missing {name} counter'
    windows = counters[prefix + 'windows']
    streams = counters[prefix + 'streams']
    deferred = counters[prefix + 'deferred']
    assert windows <= streams <= windows + deferred, (
        'streams', windows, streams, deferred)

    stream = counters.get(prefix + 'stream_insns', 0)
    assert stream > 0, 'missing golden-stream instructions'
    assert prefix + 'prefix_insns' in counters, 'missing prefix instructions'
    assert counters[prefix + 'prefix_insns'] <= stream, (
        counters[prefix + 'prefix_insns'], stream)

    for reason in REASONS:
        outcomes = sum(
            counters.get(f'{prefix}fallback_outcome.{reason}.{outcome}', 0)
            for outcome in OUTCOMES)
        fallbacks = counters.get(prefix + 'fallback.' + reason, 0)
        assert outcomes == fallbacks, (reason, outcomes, fallbacks)

    assert prefix + 'timing_safe' in counters, 'missing timing_safe counter'
    safe = counters[prefix + 'timing_safe']
    timeouts = counters.get(prefix + 'fallback_outcome.timing.timeout', 0)
    timing = counters.get(prefix + 'fallback.timing', 0)
    assert safe + timeouts <= timing, ('timing checks', safe, timeouts, timing)

    assert prefix + 'diverged' in counters, 'missing diverged counter'
    diverged = counters[prefix + 'diverged']
    assert timing <= diverged <= lanes, ('diverged', timing, diverged, lanes)
    if max_timing is not None:
        assert timing <= max_timing, ('timing fallbacks', timing, max_timing)


def main():
    parser = argparse.ArgumentParser(
        description='Check the lockstep counters of a CASTED_TRACE export.')
    parser.add_argument('trace')
    parser.add_argument('driver', choices=('campaign', 'exhaustive'))
    parser.add_argument('--lanes', type=int)
    parser.add_argument('--sites-per-lane', type=int)
    parser.add_argument('--max-timing', type=int)
    args = parser.parse_args()
    with open(args.trace) as f:
        trace = json.load(f)
    try:
        check(trace, args.driver, args.lanes, args.sites_per_lane,
              args.max_timing)
    except (AssertionError, KeyError) as error:
        sys.exit(f'{args.trace}: {args.driver} lockstep check failed: '
                 f'{error!r}')
    print(f'{args.trace}: {args.driver} lockstep counters ok')


if __name__ == '__main__':
    main()
