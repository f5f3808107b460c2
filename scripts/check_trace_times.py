#!/usr/bin/env python3
"""Checks the event times of a CASTED_TRACE export.

Usage:
  scripts/check_trace_times.py TRACE --run-us N

TRACE is the JSON a traced binary wrote, N the wall-clock length of the
run that wrote it, in microseconds (measured around the whole process).
Every event's "ts" (microseconds since the process's trace origin) and
"dur" must be non-negative, and each event must end within the run:
ts + dur <= N.  A start read before the origin was set wraps to about
1.8e16 us and fails the last check.

Exits non-zero, naming the first bad event, when any check fails.
"""

import argparse
import json
import sys


def check(trace, run_us):
    events = trace['traceEvents']
    assert events, 'no trace events recorded'
    for event in events:
        ts = event.get('ts', 0)
        dur = event.get('dur', 0)
        name = event.get('name')
        assert ts >= 0, (name, 'negative ts', ts)
        assert dur >= 0, (name, 'negative dur', dur)
        assert ts + dur <= run_us, (name, 'ends after the run', ts, dur,
                                    run_us)


def main():
    parser = argparse.ArgumentParser(
        description='Check the event times of a CASTED_TRACE export.')
    parser.add_argument('trace')
    parser.add_argument('--run-us', type=float, required=True)
    args = parser.parse_args()
    with open(args.trace) as f:
        trace = json.load(f)
    try:
        check(trace, args.run_us)
    except (AssertionError, KeyError) as error:
        sys.exit(f'{args.trace}: event time check failed: {error!r}')
    print(f'{args.trace}: {len(trace["traceEvents"])} event times ok')


if __name__ == '__main__':
    main()
