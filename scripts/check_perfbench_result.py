#!/usr/bin/env python3
"""Checks the JSON result line of one perfbench/run.py run.

Usage:
  scripts/check_perfbench_result.py OUTPUT --max-rss-mb N

OUTPUT is the run's captured stdout, whose last line is the JSON result.
The run must report "correct" (its self-checks passed), and its
peak_rss_mb must be at most N MiB.  Prints the peak, and exits non-zero,
naming the failed check, when either check fails.
"""

import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(
        description='Check a perfbench/run.py result line.')
    parser.add_argument('output')
    parser.add_argument('--max-rss-mb', type=float, required=True)
    args = parser.parse_args()
    with open(args.output) as f:
        result = json.loads(f.read().splitlines()[-1])
    peak = result['metrics']['peak_rss_mb']['value']
    print(f'{args.output}: peak_rss_mb = {peak:.1f}')
    if not result['correct']:
        sys.exit(f'{args.output}: self-check failed')
    if peak > args.max_rss_mb:
        sys.exit(f'{args.output}: peak_rss_mb {peak:.1f} exceeds '
                 f'{args.max_rss_mb:g} MiB')


if __name__ == '__main__':
    main()
